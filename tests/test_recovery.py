"""Encoders, decoders, recovery fidelities, sweeps, and thresholds."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_op
from oracles import bisect_threshold, is_unitary

from cvrep import cli
from cvrep.circuits import (
    ERASED_MODES,
    ERASURE_TAGS,
    IDEAL_RECOVERY_WIRE,
    OPTICAL_RECOVERY_WIRE,
    REFERENCE_PIVOT_ROWS,
    SURVIVOR_MODES,
    BeamSplitterPM,
    Circuit,
    Discard,
    Displace,
    FeedforwardDisplace,
    Fourier,
    Measure,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
    SweepSpec,
    TwoModeSqueeze,
    UnreachableTargetError,
    closed_form_fidelity,
    decoder_matrix,
    erase,
    fidelity_sweep,
    ideal_decoder,
    ideal_encoded_state,
    ideal_encoder,
    optical_decoder,
    optical_encoded_state,
    optical_encoder,
    recovery_fidelities,
    recovery_fidelity,
    run,
    symplectic_of,
    synthesize,
    threshold_squeezing,
)
from cvrep.circuits import recovery
from cvrep.circuits.interpreter import _fold
from cvrep.circuits.ir import _columns
from cvrep.codes import build_five_mode_code, erasure_for_vertex, nullifier_variances
from cvrep.gaussian import (
    coherent,
    discard,
    fidelity_with_coherent,
    tensor,
    vacuum,
)
from cvrep.tolerances import TOL

LN2 = float(np.log(2.0))


def x_block(circuit):
    n = len(circuit.labels)
    return symplectic_of(circuit).matrix[:n, :n]


def count_encodes(monkeypatch) -> list:
    """Record the squeezing grid of every batched evaluation from here on."""
    calls = []
    evaluate = recovery._fidelities

    def counting(rs, tags):
        calls.append(tuple(float(r) for r in rs))
        return evaluate(rs, tags)

    monkeypatch.setattr(recovery, "_fidelities", counting)
    return calls


# ---------------------------------------------------------------------------
# erasures and survivor bookkeeping
# ---------------------------------------------------------------------------


def test_each_erasure_partitions_the_register():
    for tag in ERASURE_TAGS:
        together = sorted(ERASED_MODES[tag] + SURVIVOR_MODES[tag])
        assert together == [1, 2, 3, 4, 5]


def test_erasure_ek_is_the_five_mode_pattern_of_recovery_vertex_k():
    code = build_five_mode_code()
    for k in range(1, 5):
        pattern = erasure_for_vertex(code, None, k)
        assert ERASED_MODES[f"E{k}"] == tuple(sorted(m + 1 for m in pattern.erased))
    assert ERASED_MODES == {"E1": (3, 4, 5), "E2": (2, 3), "E3": (2, 4), "E4": (1, 5)}
    assert SURVIVOR_MODES == {"E1": (1, 2), "E2": (1, 4, 5), "E3": (1, 3, 5), "E4": (2, 3, 4)}


def test_erase_keeps_survivors_in_wire_order():
    state = ideal_encoded_state(1.0, 0.5 + 0.25j)
    for tag in ERASURE_TAGS:
        survivors = erase(state, tag)
        assert survivors.n_modes == len(SURVIVOR_MODES[tag])
        keep = [m - 1 for m in SURVIVOR_MODES[tag]]
        expected = discard(state, [i for i in range(5) if i not in keep])
        np.testing.assert_allclose(survivors.mean, expected.mean, atol=1e-12)
        np.testing.assert_allclose(survivors.cov, expected.cov, atol=1e-12)


def test_erase_validates_its_input():
    with pytest.raises(ValueError):
        erase(vacuum(4), "E1")
    with pytest.raises(ValueError):
        erase(vacuum(5), "E9")


# ---------------------------------------------------------------------------
# decoder matrices and ideal decoders
# ---------------------------------------------------------------------------


def test_decoder_matrices_are_the_frozen_transforms():
    h = 1.0 / np.sqrt(2.0)
    expected = {
        "E1": [[h, h], [h, -h]],
        "E2": [[1, -1, 1], [0, 1, -2], [-1, 1, 0]],
        "E3": [[1, -1, -1], [0, 1, 2], [1, -2, -2]],
        "E4": [[-1, 1, 1], [0, 1, -1], [-1, 0.5, 0.5]],
    }
    for tag in ERASURE_TAGS:
        A = decoder_matrix(tag)
        assert isinstance(A, np.ndarray) and A.dtype == float
        np.testing.assert_array_equal(A, np.array(expected[tag], dtype=float))


def test_decoder_matrix_folds_each_tag_once(monkeypatch):
    from cvrep.circuits import recovery

    want = {tag: recovery._fold_positions(_columns(ideal_decoder(tag))) for tag in ERASURE_TAGS}
    recovery._decoder_positions.cache_clear()
    fold, folded = recovery._fold_positions, []

    def spy(columns):
        folded.append(columns)
        return fold(columns)

    monkeypatch.setattr(recovery, "_fold_positions", spy)
    for _ in range(3):
        for tag in ERASURE_TAGS:
            A = decoder_matrix(tag)
            np.testing.assert_array_equal(A, want[tag])
            A[:] = np.nan  # a caller's copy: writing to it leaves the next call intact
    assert folded == [_columns(ideal_decoder(tag)) for tag in ERASURE_TAGS]


def test_decoder_matrix_rejects_unknown_tags():
    with pytest.raises(ValueError, match="unknown erasure tag"):
        decoder_matrix("E5")


def test_ideal_decoders_realize_their_matrices():
    for tag in ERASURE_TAGS:
        circuit = ideal_decoder(tag)
        assert circuit.labels == SURVIVOR_MODES[tag]
        np.testing.assert_allclose(x_block(circuit), decoder_matrix(tag), atol=1e-14)


def test_ideal_decoders_use_the_documented_gate_sets():
    assert ideal_decoder("E1").ops == (BeamSplitterPM(1, 2),)
    for tag in ("E2", "E3", "E4"):
        ops = ideal_decoder(tag).ops
        assert len(ops) == 4 and all(isinstance(op, Qnd) for op in ops)


def test_decoder_matrices_resynthesize_on_their_own_wires():
    for tag in ERASURE_TAGS:
        circuit = synthesize(decoder_matrix(tag), SURVIVOR_MODES[tag])
        np.testing.assert_allclose(x_block(circuit), decoder_matrix(tag), atol=1e-10)


def test_reference_pivot_rows_reproduce_the_documented_sequence():
    ops = synthesize(
        decoder_matrix("E2"), SURVIVOR_MODES["E2"], pivot_rows=REFERENCE_PIVOT_ROWS["E2"]
    ).ops
    assert ops == (
        Qnd(4, 1, -1.0),
        Qnd(5, 4, -2.0),
        Qnd(1, 5, 1.0),
        SqueezeFactor(1, -1.0),
        Swap(1, 5),
    )


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def test_ideal_encoder_is_two_fourers_and_six_couplings():
    ops = ideal_encoder().ops
    assert [type(op) for op in ops[:2]] == [Fourier, Fourier]
    assert all(isinstance(op, Qnd) for op in ops[2:])
    assert len(ops) == 8
    assert is_unitary(ideal_encoder())


def test_optical_encoder_layout():
    ops = optical_encoder(1.0).ops
    kinds = [type(op) for op in ops]
    assert kinds == [
        TwoModeSqueeze,
        TwoModeSqueeze,
        BeamSplitterPM,
        Pi,
        BeamSplitterPM,
        SqueezeFactor,
    ]
    assert ops[0].r == ops[1].r == 1.0
    assert ops[-1] == SqueezeFactor(5, 1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError):
        optical_encoder(float("nan"))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_ideal_encoding_nullifier_variances(r):
    variances = nullifier_variances(build_five_mode_code(), ideal_encoded_state(r))
    np.testing.assert_allclose(
        variances, np.array([0.5, 1.0, 0.5, 0.5]) * np.exp(-2.0 * r), atol=1e-12
    )


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_optical_encoding_nullifier_variances(r):
    variances = nullifier_variances(build_five_mode_code(), optical_encoded_state(r))
    np.testing.assert_allclose(variances, 2.0 * np.exp(-2.0 * r), atol=1e-12)


def test_optical_nullifier_variances_are_relatively_exact_at_strong_squeezing():
    # each variance is 2 e^{-2r}, about 2e-7 at r = 8, while the encoded
    # covariance holds entries of order e^{2r}; from the factor's rows the
    # error stays near e^{r} eps in absolute terms
    r = 8.0
    variances = nullifier_variances(build_five_mode_code(), optical_encoded_state(r, 0.3 + 0.2j))
    np.testing.assert_allclose(variances, 2.0 * np.exp(-2.0 * r), rtol=1e-8, atol=0)


@pytest.mark.parametrize("r", [0.0, 0.9, 2.0])
def test_optical_encoded_state_equals_running_the_encoder(r):
    alpha = 0.6 - 0.3j
    stepped = run(optical_encoder(r), tensor(coherent(alpha), vacuum(4))).state
    folded = optical_encoded_state(r, alpha)
    np.testing.assert_allclose(folded.mean, stepped.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(folded.cov, stepped.cov, rtol=0, atol=1e-12 * np.cosh(2 * r))


@pytest.mark.parametrize("r", [0.5, 3.0, 10.0])
def test_the_encoder_folded_at_zero_squeezing_gives_its_map_at_any_squeezing(r):
    # at r = 0 each squeezer term has coefficient 1, so slice k of the fold
    # is the map's e^{kr} part; the ideal encoder, with no squeezer, has one
    _, total, _ = _fold(optical_encoder(0.0).ops, (1, 2, 3, 4, 5))
    assert len(total) == 5 and len(_fold(ideal_encoder().ops, (1, 2, 3, 4, 5))[1]) == 1
    summed = np.tensordot(np.exp(np.arange(-2, 3) * r), total, axes=1)
    want = symplectic_of(optical_encoder(r))
    rounding = len(optical_encoder(r)) * np.finfo(float).eps * np.abs(want.matrix).max()
    np.testing.assert_allclose(summed[:, :-1], want.matrix, rtol=0, atol=rounding)
    np.testing.assert_allclose(summed[:, -1], want.displacement, rtol=0, atol=rounding)


@pytest.mark.parametrize("fold", [lambda r: symplectic_of(optical_encoder(r)), optical_encoded_state], ids=["symplectic_of", "run"])
@pytest.mark.parametrize("r", [800.0, 1e6])
def test_a_map_past_float_range_is_an_error_not_a_nan_state(fold, r):
    # e^{r} overflows; no overflow warning may escape first, and neither the
    # folded map nor the state it gives may come back full of NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leaves float range"):
            fold(r)


@pytest.mark.parametrize("encode", [ideal_encoded_state, optical_encoded_state])
@pytest.mark.parametrize(
    "r, message",
    [
        (-1.0, r"^r must be >= 0"),
        (-800.0, r"^r must be >= 0"),
        (np.nan, r"^r must be finite"),
        (np.inf, r"^r must be finite"),
        (709.79, r"^r = 709\.79 is too large: the circuit's map leaves float range$"),
        (720.0, r"^r = 720\.0 is too large: the circuit's map leaves float range$"),
        (746.0, r"^r = 746\.0 is too large: e\^\{-r\} underflows to 0"),
        (800.0, r"^r = 800\.0 is too large"),
        (1e6, r"^r = 1000000\.0 is too large"),
    ],
)
def test_encoded_states_check_the_squeezing_as_recovery_fidelities_does(encode, r, message):
    # a negative r is not a squeezing magnitude; past r = 745.1 the
    # ancillas' squeeze factor e^{-r} is 0.  Either raises before any op
    # runs.  Below that, from r = 709.79 on, both encoders' maps hold e^{r}
    # terms past float range, and run's error names r.  No NumPy warning
    # fires first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            encode(r)


def test_each_encoder_names_r_where_its_own_map_leaves_float_range():
    # the ideal encoder's map leaves float range from a smaller r than the
    # optical one's: at r = 709.5 the first raises, naming r, and the second
    # still gives a finite state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^r = 709\.5 is too large: the circuit's map leaves float range$"):
            ideal_encoded_state(709.5)
        assert np.isfinite(optical_encoded_state(709.5).factor).all()


def test_run_itself_rejects_a_map_past_float_range():
    # the encoded states check r before they run; run checks the map it folds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the circuit's map leaves float range$"):
            run(optical_encoder(800.0), tensor(coherent(0), vacuum(4)), average=True)


def test_nullifier_variances_decay_with_slope_minus_two():
    grid = np.array([1.0, 2.0, 3.0])
    for encode in (ideal_encoded_state, optical_encoded_state):
        logs = np.array(
            [np.log(nullifier_variances(build_five_mode_code(), encode(r))) for r in grid]
        )
        for k in range(4):
            slope = np.polyfit(grid, logs[:, k], 1)[0]
            assert slope == pytest.approx(-2.0, abs=0.01)


def test_encoding_is_displacement_covariant():
    # Encoding a displaced input shifts the logical mean linearly and leaves
    # every nullifier variance untouched.
    code = build_five_mode_code()
    plain = ideal_encoded_state(1.0)
    displaced = ideal_encoded_state(1.0, 1.5 - 0.5j)
    np.testing.assert_allclose(
        nullifier_variances(code, plain), nullifier_variances(code, displaced), atol=1e-12
    )
    np.testing.assert_allclose(displaced.cov, plain.cov, atol=1e-12)
    assert not np.allclose(displaced.mean, plain.mean)


def test_ideal_e1_recovery_is_a_sqrt2_dilation():
    # After the E1 beam splitter the recovered wire carries the input
    # dilated by sqrt(2); undoing the dilation makes the fidelity approach 1
    # as the code squeezing grows.
    alpha = 0.8 - 0.3j
    infidelities = []
    for r in (1.0, 2.0, 3.0):
        survivors = erase(ideal_encoded_state(r, alpha), "E1")
        result = run(ideal_decoder("E1"), survivors)
        pos = result.labels.index(IDEAL_RECOVERY_WIRE["E1"])
        out = discard(result.state, [i for i in range(2) if i != pos])
        out = apply_op(out, SqueezeFactor(1, 1.0 / np.sqrt(2.0)))
        infidelities.append(1.0 - fidelity_with_coherent(out, alpha))
    assert infidelities[0] < 1e-2
    # each extra unit of squeezing cuts the infidelity by about e^2
    assert infidelities[0] > 5 * infidelities[1] > 25 * infidelities[2]


# ---------------------------------------------------------------------------
# optical recovery fidelities
# ---------------------------------------------------------------------------


def test_e1_recovery_is_perfect_at_any_squeezing():
    for r in (0.0, 0.7, 2.5):
        assert recovery_fidelity("E1", r) == pytest.approx(1.0, abs=1e-12)


def test_e2_recovery_matches_the_closed_form_off_origin():
    value = recovery_fidelity("E2", 2.0, 1.0 + 0.5j)
    assert value == pytest.approx(1.0 / (1.0 + 2.0 * np.exp(-4.0)), abs=1e-9)


def test_e4_recovery_at_zero_squeezing_is_one_half():
    assert recovery_fidelity("E4", 0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tag", ERASURE_TAGS)
@pytest.mark.parametrize("r", [0.0, 0.5, 1.3])
def test_simulated_fidelities_match_the_formulas(tag, r):
    assert recovery_fidelity(tag, r, 0.3 - 0.9j) == pytest.approx(
        closed_form_fidelity(tag, r), abs=1e-9
    )


@pytest.mark.parametrize("r", [10.0, 20.0, 30.0, 100.0])
def test_fidelities_stay_exact_at_strong_squeezing(r):
    # Entries of the encoded covariance grow like e^{2r}, and cosh r
    # overflows past r = 710; the recovered wire's compiled rows have no
    # e^{r} part, so no large term is formed.
    fidelities = recovery_fidelities(r, ERASURE_TAGS, 0.3 + 0.2j)
    for tag in ERASURE_TAGS:
        assert fidelities[tag] == pytest.approx(closed_form_fidelity(tag, r), abs=1e-12)


@given(
    rs=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=4),
    re=st.floats(min_value=-3.0, max_value=3.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_batched_fidelities_equal_the_stepped_pipeline(rs, re, im):
    # independent of the compiled pipeline: the encoder stepped gate by
    # gate on coherent (x) vacuum, the stepped erasure, and each decoder's
    # outcome-averaged run
    alpha = complex(re, im)
    cells = recovery._fidelities(rs, ERASURE_TAGS)
    for r, row in zip(rs, cells):
        encoded = run(optical_encoder(r), tensor(coherent(alpha), vacuum(4))).state
        for tag, cell in zip(ERASURE_TAGS, row):
            out = run(optical_decoder(tag), erase(encoded, tag), average=True).state
            assert cell == pytest.approx(fidelity_with_coherent(out, alpha), rel=0, abs=1e-12)


@pytest.mark.parametrize("alpha", [complex("nan"), complex(0.0, float("inf")), complex("-inf")])
def test_recovery_fidelities_reject_a_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match="displacement amplitude must be finite"):
        recovery_fidelity("E2", 1.0, alpha=alpha)
    with pytest.raises(ValueError, match="displacement amplitude must be finite"):
        recovery_fidelities(1.0, ERASURE_TAGS, alpha)


@pytest.mark.parametrize("r", [-1000.0, -30.0, -1e-9])
def test_recovery_fidelities_reject_negative_squeezing(r):
    # r is the resource states' squeezing magnitude
    with pytest.raises(ValueError, match="r must be >= 0"):
        recovery_fidelities(r, ERASURE_TAGS)
    with pytest.raises(ValueError, match="r must be >= 0"):
        recovery_fidelity("E1", r)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_recovery_fidelities_and_sweeps_reject_non_finite_squeezing(r):
    # one rule, _check_squeezing, for a single r and for a sweep's bounds
    with pytest.raises(ValueError, match="^r must be finite"):
        recovery_fidelities(r, ERASURE_TAGS)
    with pytest.raises(ValueError, match="^r_min must be finite"):
        SweepSpec(r_min=r, r_max=1.0)
    with pytest.raises(ValueError, match="^r_max must be finite"):
        SweepSpec(r_min=0.0, r_max=r)


@pytest.mark.parametrize(
    "tag, ops",
    [
        # the code's wire 2 itself: x + y carries the squeezed resource
        ("E1", (Discard(1),)),
        # E2 with one miscalibrated gain
        ("E2", (BeamSplitterPM(1, 4), SqueezeFactor(5, np.sqrt(2.0)), Qnd(4, 5, 2.5),
                Qnd(5, 1, -2.0), Discard(1), Discard(4))),
    ],
)
def test_a_decoder_whose_output_grows_like_e_to_the_r_fails_to_compile(monkeypatch, tag, ops):
    wrong = Circuit(SURVIVOR_MODES[tag], ops)
    monkeypatch.setitem(recovery._OPTICAL_DECODERS, tag, wrong)
    with pytest.raises(ValueError, match="grow like e\\^\\{r\\}"):
        recovery._compile(tag)


def test_a_decoder_that_leaves_two_wires_fails_to_compile(monkeypatch):
    monkeypatch.setitem(recovery._OPTICAL_DECODERS, "E1", ideal_decoder("E1"))
    with pytest.raises(ValueError, match="not one recovered wire"):
        recovery._compile("E1")


@pytest.mark.parametrize(
    "op",
    # an offset, and a gain off 1 by 1e-9 (x by 1 + 1e-9, p by its inverse)
    [Displace(2, 0.5), SqueezeFactor(2, 1.0 + 1e-9)],
    ids=["offset", "gain"],
)
def test_a_decoder_that_moves_the_recovered_mean_fails_to_compile(monkeypatch, op):
    wrong = Circuit(SURVIVOR_MODES["E1"], (BeamSplitterPM(1, 2), op, Discard(1)))
    monkeypatch.setitem(recovery._OPTICAL_DECODERS, "E1", wrong)
    with pytest.raises(ValueError, match="^optical decoder E1: the recovered wire's mean is not the input's$"):
        recovery._compile("E1")


@pytest.mark.parametrize("gain", [1.0 + 1e-9, 1.0 - 1e-6, 0.5])
def test_an_e4_feedforward_off_its_gain_fails_to_compile(monkeypatch, gain):
    # the measured quadrature then reaches the recovered wire, so an
    # outcome would move it: the averaged channel is not every outcome's
    ops = tuple(
        FeedforwardDisplace(op.register, op.target, op.quad, gain) if isinstance(op, FeedforwardDisplace) else op
        for op in optical_decoder("E4").ops
    )
    monkeypatch.setitem(recovery._OPTICAL_DECODERS, "E4", Circuit(SURVIVOR_MODES["E4"], ops))
    message = "^optical decoder E4: a measured quadrature is correlated with the recovered wire$"
    with pytest.raises(ValueError, match=message):
        recovery._compile("E4")


@pytest.mark.parametrize("tag", ERASURE_TAGS)
def test_the_noise_table_is_the_compiled_channels(tag):
    # each recovery is y = x_in + noise of covariance c e^{-2r} I, c from
    # _NOISE, so the closed forms are read off the circuits: T = I and
    # N2 = c I within the compile's rounding, N0 = N1 = 0
    _, T, N = recovery._compile(tag)
    rounding = 10 * np.finfo(float).eps * max(1.0, recovery._NOISE[tag])
    np.testing.assert_allclose(T, np.eye(2), rtol=0, atol=rounding)
    np.testing.assert_allclose(N[2], recovery._NOISE[tag] * np.eye(2), rtol=0, atol=rounding)
    assert not N[:2].any()


def test_an_encoder_that_squeezes_a_pair_twice_fails_to_compile(monkeypatch):
    # its rows hold e^{2r} parts, which e^{-r} L[0] + L[1] + e^{r} L[2] cannot
    encoder = optical_encoder(0.0)
    twice = encoder.with_ops((TwoModeSqueeze(2, 4, 0.0),) + encoder.ops)
    monkeypatch.setattr(recovery, "optical_encoder", lambda r: twice)
    with pytest.raises(ValueError, match="^optical decoder E1: a row has a power of e\\^\\{r\\} beyond 1$"):
        recovery._compile("E1")


@pytest.mark.parametrize("alpha", [1e12, 1e100j, -1e150 + 1e150j])
@pytest.mark.parametrize("seed", [None, 3])
def test_recovery_fidelities_do_not_depend_on_the_amplitude(alpha, seed):
    # E1's and E2's folded mean gain is 0.9999999999999998; used as is, it
    # shifted the output by 2.2e-16 alpha: 2.98e-8 off the formula at 1e12,
    # F = 0 at 1e100.  At r = 1, and at an r drawn from the seed
    r = 1.0 if seed is None else float(np.random.default_rng(seed).uniform(0.0, 30.0))
    cells = recovery_fidelities(r, ERASURE_TAGS, alpha)
    assert cells == recovery_fidelities(r, ERASURE_TAGS)
    for tag in ERASURE_TAGS:
        assert abs(cells[tag] - closed_form_fidelity(tag, r)) <= TOL.fidelity_gate


def test_optical_recovery_wires_are_the_documented_ones():
    assert OPTICAL_RECOVERY_WIRE == {"E1": 2, "E2": 5, "E3": 3, "E4": 4}


def test_e4_output_is_outcome_independent():
    survivors = erase(optical_encoded_state(1.0, 0.5), "E4")
    outputs = []
    for forced in (-3.0, 0.0, 3.0):
        result = run(optical_decoder("E4"), survivors.copy(), forced={"m1": forced})
        assert result.labels == (OPTICAL_RECOVERY_WIRE["E4"],)
        outputs.append(result.state)
    for state in outputs[1:]:
        np.testing.assert_allclose(state.mean, outputs[0].mean, atol=1e-10)
        np.testing.assert_allclose(state.cov, outputs[0].cov, atol=1e-10)


def test_sampled_e4_recovery_equals_the_deterministic_value():
    deterministic = recovery_fidelity("E4", 1.2, 0.4j)
    survivors = erase(optical_encoded_state(1.2, 0.4j), "E4")
    sampled = run(optical_decoder("E4"), survivors, rng=np.random.default_rng(5)).state
    assert fidelity_with_coherent(sampled, 0.4j) == pytest.approx(deterministic, abs=1e-9)


@pytest.mark.parametrize("r", [0.4, 1.7])
def test_sampled_e4_draws_as_the_stepped_run_does(r):
    # the compiled cell, which draws nothing, against the run path's draw
    alpha = 0.5 - 0.2j
    stepped = run(optical_decoder("E4"), erase(optical_encoded_state(r, alpha), "E4"), rng=np.random.default_rng(8))
    compiled = recovery_fidelity("E4", r, alpha)
    assert compiled == pytest.approx(fidelity_with_coherent(stepped.state, alpha), abs=1e-9)


@pytest.mark.parametrize("r", [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0])
@pytest.mark.parametrize("tag", ERASURE_TAGS)
def test_the_run_path_pipeline_matches_the_closed_form(tag, r):
    # encode, erase and decode as three steps on states: each maps the
    # state's factor, so the decoder cancels the encoder's e^{r} rows, not
    # an e^{2r} covariance
    alpha = 0.3 + 0.2j
    survivors = erase(optical_encoded_state(r, alpha), tag)
    averaged = run(optical_decoder(tag), survivors, average=True).state
    sampled = run(optical_decoder(tag), survivors, rng=np.random.default_rng(6)).state
    for state in (averaged, sampled):
        deviation = abs(fidelity_with_coherent(state, alpha) - closed_form_fidelity(tag, r))
        assert deviation <= TOL.fidelity_gate


@pytest.mark.parametrize(
    "tags", [tags for k in range(1, 5) for tags in combinations(ERASURE_TAGS, k)], ids="-".join
)
def test_averaged_cells_are_the_sampled_ones_to_the_bit(tags, capsys):
    # no homodyne outcome moves a compiled cell (_compile checks it), so a
    # seeded sweep prints an unseeded one's bytes, and each cell is the
    # averaged one, from r = 0 to where e^{-r} is subnormal (745.2) or 0
    rs = [0.0, 1e-300, 0.7, 30.0, 745.2, 1000.0, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        averaged = recovery._fidelities(rs, tags)
        for r, row in zip(rs, averaged):
            argv = ["fidelity", "--steps=1", f"--r-min={r!r}", f"--r-max={r!r}", f"--errors={','.join(tags)}"]
            printed = [(cli.main(argv), capsys.readouterr().out) for argv in (argv, ["--seed=9", *argv])]
            assert printed[0] == printed[1] and printed[0][0] == 0
            cells = printed[0][1].splitlines()[1].split(",")[1:5]
            assert [cells[ERASURE_TAGS.index(tag)] for tag in tags] == [format(f, ".12g") for f in row]
    # and where the run path's states stay in float range, its cells
    alpha = 0.3 + 0.2j
    for r, row in zip(rs, averaged):
        if r > 25.0:
            continue
        encoded = optical_encoded_state(r, alpha)
        for tag, cell in zip(tags, row):
            survivors = erase(encoded, tag)
            for policy in ({"average": True}, {"rng": np.random.default_rng(6)}):
                state = run(optical_decoder(tag), survivors, **policy).state
                assert abs(cell - fidelity_with_coherent(state, alpha)) <= TOL.fidelity_gate


@pytest.mark.parametrize("tag", ERASURE_TAGS)
def test_erase_and_decode_leave_their_input_unchanged(tag):
    # callers erase and decode one encoded register for several tags
    encoded = optical_encoded_state(0.9, 0.4 - 0.2j)
    mean, cov = encoded.mean.copy(), encoded.cov.copy()
    survivors = erase(encoded, tag)
    assert np.array_equal(encoded.mean, mean) and np.array_equal(encoded.cov, cov)
    mean, cov = survivors.mean.copy(), survivors.cov.copy()
    run(optical_decoder(tag), survivors, average=True)
    run(optical_decoder(tag), survivors, rng=np.random.default_rng(2))
    assert np.array_equal(survivors.mean, mean) and np.array_equal(survivors.cov, cov)


def test_optical_decoder_returns_equal_circuits_on_repeated_calls():
    for tag in ERASURE_TAGS:
        assert optical_decoder(tag) == optical_decoder(tag)


def test_recovery_fidelities_checks_every_tag_before_encoding(monkeypatch):
    encodes = count_encodes(monkeypatch)
    with pytest.raises(ValueError, match="unknown erasure tag"):
        recovery_fidelities(0.5, ("E1", "E9"))
    assert encodes == []
    assert list(recovery_fidelities(0.5, ("E4", "E1"))) == ["E4", "E1"]
    assert encodes == [(0.5,)]


def test_optical_decoders_consume_down_to_one_wire():
    for tag in ERASURE_TAGS:
        survivors = erase(optical_encoded_state(0.8), tag)
        result = run(optical_decoder(tag), survivors, average=True)
        assert result.labels == (OPTICAL_RECOVERY_WIRE[tag],)
        assert result.state.n_modes == 1


def test_optical_e4_decoder_measures_and_feeds_forward():
    ops = optical_decoder("E4").ops
    assert any(isinstance(op, Measure) for op in ops)
    assert any(isinstance(op, FeedforwardDisplace) for op in ops)
    for tag in ("E1", "E2", "E3"):
        assert not any(isinstance(op, Measure) for op in optical_decoder(tag).ops)
        assert any(isinstance(op, Discard) for op in optical_decoder(tag).ops)


def test_closed_forms_are_monotone_and_ordered():
    rs = np.linspace(0.0, 3.0, 13)
    f2 = [closed_form_fidelity("E2", r) for r in rs]
    f4 = [closed_form_fidelity("E4", r) for r in rs]
    assert all(b > a for a, b in zip(f2, f2[1:]))
    assert all(x4 > x2 for x2, x4 in zip(f2[:-1], f4[:-1]))
    assert closed_form_fidelity("E3", 1.1) == closed_form_fidelity("E2", 1.1)


@pytest.mark.parametrize("r", [0.0, 1e-300, 0.5, 30.0, 1000.0])
def test_e1_closed_form_is_exactly_one_at_any_r(r):
    assert closed_form_fidelity("E1", r) == 1.0


@pytest.mark.parametrize("tag", ERASURE_TAGS)
@pytest.mark.parametrize("r", [np.inf, -1000.0, -400.0, -np.inf, np.nan])
def test_closed_form_rejects_what_recovery_fidelities_rejects(tag, r):
    # the squeezing rule of recovery_fidelities (_check_squeezing): no nan,
    # no 0.0 at -inf, no bare OverflowError from math.exp at r = -400
    with pytest.raises(ValueError, match="^r must be finite" if not np.isfinite(r) else "r must be >= 0"):
        closed_form_fidelity(tag, r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_tracks_formulas_across_the_grid():
    spec = SweepSpec(r_min=0.0, r_max=2.0, steps=5, alpha=0.2 + 0.1j)
    result = fidelity_sweep(spec)
    np.testing.assert_array_equal(result.r, np.linspace(0.0, 2.0, 5))
    assert result.simulated.shape == result.formula.shape == (5, len(ERASURE_TAGS))
    assert result.row_max_abs_dev.shape == (5,)
    assert result.max_abs_dev <= 1e-9
    assert np.all(np.isfinite(result.simulated))
    for r, formulas in zip(result.r, result.formula):
        for tag, formula in zip(ERASURE_TAGS, formulas):
            assert formula == closed_form_fidelity(tag, r)


def test_sweep_formula_table_is_the_closed_forms_bit_for_bit():
    # a grid on which NumPy's exp and math.exp differ in the last place of 7 fidelities
    result = fidelity_sweep(SweepSpec(r_min=0.0, r_max=5.0, steps=1001, errors=("E1",)))
    expected = [[closed_form_fidelity(tag, r) for tag in ERASURE_TAGS] for r in result.r]
    np.testing.assert_array_equal(result.formula, expected)


def test_sweep_marks_unswept_tags_with_nan():
    spec = SweepSpec(r_min=0.5, r_max=0.5, steps=1, errors=("E1", "E4"))
    result = fidelity_sweep(spec)
    simulated, formula = result.simulated[0], result.formula[0]
    assert np.isnan(simulated[1]) and np.isnan(simulated[2])
    assert np.isfinite(simulated[0]) and np.isfinite(simulated[3])
    assert np.all(np.isfinite(formula))


def test_sweep_encodes_the_register_once_per_r(monkeypatch):
    # the whole grid in one batched evaluation
    encodes = count_encodes(monkeypatch)
    result = fidelity_sweep(SweepSpec(r_min=0.2, r_max=1.0, steps=3))
    assert encodes == [tuple(result.r.tolist())] and len(encodes[0]) == 3


@pytest.mark.parametrize("seed", [None, 11])
def test_sweep_cells_equal_single_tag_recovery_fidelities(seed):
    # a fixed spec, and one whose grid, tags and amplitude the seed draws
    spec = SweepSpec(r_min=0.1, r_max=1.4, steps=4, errors=("E4", "E2", "E1"), alpha=0.3 - 0.7j)
    if seed is not None:
        rng = np.random.default_rng(seed)
        r_min, width = rng.uniform(0.0, 20.0, 2)
        errors = tuple(str(tag) for tag in rng.permutation(ERASURE_TAGS)[: rng.integers(1, 5)])
        spec = SweepSpec(r_min, r_min + width, int(rng.integers(1, 30)), errors, complex(*rng.normal(size=2)))
    result = fidelity_sweep(spec)
    for r, cells in zip(result.r, result.simulated):
        for tag, cell in zip(ERASURE_TAGS, cells):
            if tag in spec.errors:
                assert cell == recovery_fidelity(tag, r, spec.alpha)
            else:
                assert np.isnan(cell)


@pytest.mark.parametrize("tag", ERASURE_TAGS)
def test_sweep_deviation_is_nan_when_a_cell_is_nan(monkeypatch, tag):
    honest = recovery._fidelities

    def one_nan(rs, tags):
        cells = honest(rs, tags)
        cells[:, tags.index(tag)] = float("nan")
        return cells

    monkeypatch.setattr(recovery, "_fidelities", one_nan)
    result = fidelity_sweep(SweepSpec(r_min=0.2, r_max=0.6, steps=3))
    assert np.all(np.isnan(result.row_max_abs_dev))
    assert np.isnan(result.max_abs_dev)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(steps=0)
    with pytest.raises(ValueError):
        SweepSpec(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        SweepSpec(errors=("E1", "E1"))
    with pytest.raises(ValueError):
        SweepSpec(errors=("E7",))
    with pytest.raises(ValueError):
        SweepSpec(errors=())
    for r_min in (-1000.0, -30.0, -1e-300):
        with pytest.raises(ValueError, match="r_min must be >= 0"):
            SweepSpec(r_min=r_min, r_max=0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(r_min=bad, steps=3)
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(r_max=bad, steps=1)
        with pytest.raises(ValueError, match="displacement amplitude must be finite"):
            SweepSpec(alpha=complex(bad, 0.0))
        with pytest.raises(ValueError, match="displacement amplitude must be finite"):
            SweepSpec(alpha=complex(0.0, bad))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_for_two_thirds_is_ln_two():
    assert threshold_squeezing(2.0 / 3.0) == pytest.approx(LN2, abs=2e-6)


def test_threshold_for_one_half_is_half_ln_two():
    assert threshold_squeezing(0.5) == pytest.approx(0.5 * LN2, abs=2e-6)


def test_threshold_already_met_at_zero_squeezing():
    # the worst case at r = 0 is F2 = F3 = 1/3, so anything below that
    # needs no squeezing at all
    assert threshold_squeezing(0.32) == 0.0
    assert threshold_squeezing(0.2) == 0.0


def exact_threshold(target):
    """½ ln(2t / (1 - t)), the least r with 1 / (1 + 2 e^{-2r}) >= t, or 0 for t <= 1/3."""
    return 0.0 if target <= 1.0 / 3.0 else 0.5 * (math.log(2.0 * target) - math.log1p(-target))


def test_threshold_is_the_exact_inverse_up_to_target_one():
    # 1 - t from 0.5 down to 1e-15, 1 - 1e-12 among them: F is never formed
    # as a float near 1, so no target loses digits to its last ulp
    for gap in (float(f"{m}e-{k}") for k in range(1, 16) for m in (5, 2, 1)):
        target = 1.0 - gap
        assert threshold_squeezing(target) == pytest.approx(exact_threshold(target), rel=1e-13, abs=0.0)
    for target in (-0.5, 0.0, 1e-300, 0.2, 0.32, 1.0 / 3.0):
        assert threshold_squeezing(target) == 0.0


def _threshold_outcome(search):
    try:
        return search()
    except ValueError as exc:
        return type(exc), str(exc)


@given(target=st.floats(min_value=0.2, max_value=1.2), log_tol=st.floats(min_value=-300.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_threshold_is_the_exact_inverse_or_the_oracles_error(target, log_tol):
    # targets from met at r = 0 through reachable to unreachable (>= 1); tols
    # from below float resolution to wider than any r.  Near t = 1/3, r -> 0,
    # so the bound is absolute there
    tol = 10.0**log_tol
    r = _threshold_outcome(lambda: threshold_squeezing(target, tol=tol))
    expected = _threshold_outcome(lambda: bisect_threshold(target, tol))
    if isinstance(expected, tuple):
        assert r == expected
    else:
        assert abs(r - exact_threshold(target)) <= max(1e-13 * r, 4e-15)


@given(target=st.floats(min_value=0.34, max_value=1.0 - 1e-6), log_tol=st.floats(min_value=-9.0, max_value=-3.0))
@settings(max_examples=40, deadline=None)
def test_threshold_is_within_tol_of_a_search_over_the_simulation(target, log_tol):
    # the step-by-step bisection of the simulated worst case still resolves
    # its tol over this range; the closed form must land inside it
    tol = 10.0**log_tol
    assert abs(threshold_squeezing(target, tol=tol) - bisect_threshold(target, tol)) <= tol


@pytest.mark.parametrize("target", [0.34, 0.5, 2.0 / 3.0, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-52])
def test_threshold_meets_its_target_in_the_simulation(target):
    r = threshold_squeezing(target)
    worst = recovery._fidelities([r], ERASURE_TAGS).min()
    assert worst >= target - 4.0 * math.ulp(target)


def test_threshold_setup_refuses_a_channel_with_slower_noise(monkeypatch):
    # the closed form holds only for noise e^{-2r} N2; a channel with an
    # e^{-r} part must stop the setup, not give a wrong r
    assert len(recovery._threshold_noise()) == len(ERASURE_TAGS)
    wire, T, N = recovery._COMPILED["E4"]
    slower = N.copy()
    slower[1] = 0.5 * np.eye(2)
    monkeypatch.setitem(recovery._COMPILED, "E4", (wire, T, slower))
    with pytest.raises(ValueError, match="E4"):
        recovery._threshold_noise()


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_threshold_rejects_a_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        threshold_squeezing(0.5, tol=tol)


def test_threshold_rejects_unreachable_and_malformed_targets():
    with pytest.raises(UnreachableTargetError):
        threshold_squeezing(1.0)
    with pytest.raises(UnreachableTargetError):
        threshold_squeezing(1.5)
    with pytest.raises(ValueError):
        threshold_squeezing(float("nan"))
    with pytest.raises(ValueError):
        threshold_squeezing(0.9, tol=0.0)
