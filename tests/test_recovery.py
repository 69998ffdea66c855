"""Encoders, decoders, recovery fidelities, sweeps, and thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_op
from oracles import bisect_threshold

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
from cvrep.codes import build_five_mode_code, erasure_for_vertex, nullifier_variances
from cvrep.gaussian import (
    coherent,
    discard,
    fidelity_with_coherent,
    tensor,
    vacuum,
)

LN2 = float(np.log(2.0))


def x_block(circuit):
    n = len(circuit.labels)
    return symplectic_of(circuit).matrix[:n, :n]


def count_encodes(monkeypatch, limit=None) -> list:
    """Record the squeezing grid of every batched evaluation from here on.

    With a ``limit``, the evaluation after the first ``limit`` raises, so a
    search that does not stop fails instead of hanging.
    """
    calls = []
    evaluate = recovery._fidelities

    def counting(rs, tags, alpha, rng=None):
        calls.append(tuple(float(r) for r in rs))
        if limit is not None and len(calls) > limit:
            raise RuntimeError("threshold search did not stop")
        return evaluate(rs, tags, alpha, rng)

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

    want = {tag: recovery._fold_positions(ideal_decoder(tag)) for tag in ERASURE_TAGS}
    recovery._decoder_positions.cache_clear()
    fold, folded = recovery._fold_positions, []

    def spy(circuit):
        folded.append(circuit)
        return fold(circuit)

    monkeypatch.setattr(recovery, "_fold_positions", spy)
    for _ in range(3):
        for tag in ERASURE_TAGS:
            A = decoder_matrix(tag)
            np.testing.assert_array_equal(A, want[tag])
            A[:] = np.nan  # a caller's copy: writing to it leaves the next call intact
    assert folded == [ideal_decoder(tag) for tag in ERASURE_TAGS]


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
    assert ideal_encoder().is_unitary()


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


@pytest.mark.parametrize("r", [0.0, 0.9, 2.0])
def test_optical_encoded_state_equals_running_the_encoder(r):
    alpha = 0.6 - 0.3j
    stepped = run(optical_encoder(r), tensor(coherent(alpha), vacuum(4))).state
    folded = optical_encoded_state(r, alpha)
    np.testing.assert_allclose(folded.mean, stepped.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(folded.cov, stepped.cov, rtol=0, atol=1e-12 * np.cosh(2 * r))


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
    cells = recovery._fidelities(rs, ERASURE_TAGS, alpha)
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
        recovery_fidelities(1.0, ERASURE_TAGS, alpha, rng=np.random.default_rng(1))


@pytest.mark.parametrize("r", [-1000.0, -30.0, -1e-9])
def test_recovery_fidelities_reject_negative_squeezing(r):
    # r is the resource states' squeezing magnitude
    with pytest.raises(ValueError, match="r must be >= 0"):
        recovery_fidelities(r, ERASURE_TAGS)
    with pytest.raises(ValueError, match="r must be >= 0"):
        recovery_fidelity("E1", r, rng=np.random.default_rng(1))


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
    sampled = recovery_fidelity("E4", 1.2, 0.4j, rng=np.random.default_rng(5))
    assert sampled == pytest.approx(deterministic, abs=1e-9)


@pytest.mark.parametrize("r", [0.4, 1.7])
def test_sampled_e4_draws_as_the_stepped_run_does(r):
    alpha = 0.5 - 0.2j
    stepped_rng, compiled_rng = np.random.default_rng(8), np.random.default_rng(8)
    stepped = run(optical_decoder("E4"), erase(optical_encoded_state(r, alpha), "E4"), rng=stepped_rng)
    sampled = recovery_fidelity("E4", r, alpha, rng=compiled_rng)
    assert sampled == pytest.approx(fidelity_with_coherent(stepped.state, alpha), abs=1e-9)
    # one draw each, so both generators are left in the same state
    assert stepped_rng.random() == compiled_rng.random()


@pytest.mark.parametrize("r", [10.0, 20.0, 30.0, 100.0])
def test_sampled_fidelities_stay_exact_at_strong_squeezing(r):
    # the stepped homodyne conditions a covariance with e^{2r}-sized
    # entries; the compiled rows never form one
    fidelities = recovery_fidelities(r, ERASURE_TAGS, 0.3 + 0.2j, rng=np.random.default_rng(4))
    for tag in ERASURE_TAGS:
        assert fidelities[tag] == pytest.approx(closed_form_fidelity(tag, r), abs=1e-12)


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
    spec = SweepSpec(r_min=0.0, r_max=2.0, steps=5)
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


def test_sweep_with_rng_matches_the_formulas_too():
    spec = SweepSpec(r_min=0.3, r_max=1.5, steps=3, errors=("E4",), alpha=0.2 + 0.1j)
    result = fidelity_sweep(spec, rng=np.random.default_rng(3))
    assert result.max_abs_dev <= 1e-9


def test_sweep_encodes_the_register_once_per_r(monkeypatch):
    # the whole grid in one batched evaluation
    encodes = count_encodes(monkeypatch)
    result = fidelity_sweep(SweepSpec(r_min=0.2, r_max=1.0, steps=3))
    assert encodes == [tuple(result.r.tolist())] and len(encodes[0]) == 3


@pytest.mark.parametrize("seed", [None, 11])
def test_sweep_cells_equal_single_tag_recovery_fidelities(seed):
    def generator():
        return None if seed is None else np.random.default_rng(seed)

    spec = SweepSpec(r_min=0.1, r_max=1.4, steps=4, errors=("E4", "E2", "E1"), alpha=0.3 - 0.7j)
    result = fidelity_sweep(spec, rng=generator())
    # row by row in ERASURE_TAGS order: the order a seeded sweep draws in
    rng = generator()
    for r, cells in zip(result.r, result.simulated):
        for tag, cell in zip(ERASURE_TAGS, cells):
            if tag in spec.errors:
                assert cell == recovery_fidelity(tag, r, spec.alpha, rng=rng)
            else:
                assert np.isnan(cell)


@pytest.mark.parametrize("tag", ERASURE_TAGS)
def test_sweep_deviation_is_nan_when_a_cell_is_nan(monkeypatch, tag):
    honest = recovery._fidelities

    def one_nan(rs, tags, alpha, rng=None):
        cells = honest(rs, tags, alpha, rng)
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


def test_threshold_evaluates_its_bracket_then_batched_rounds(monkeypatch):
    evaluated = count_encodes(monkeypatch)
    r = threshold_squeezing(2.0 / 3.0, tol=1e-6)
    batched = list(evaluated)
    evaluated.clear()
    assert bisect_threshold(2.0 / 3.0, 1e-6) == r
    # the first call holds r = 0 and every end the doubling bracket tries
    assert batched[0] == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    assert all(len(rs) <= 2**recovery._LEVELS - 1 for rs in batched[1:])
    # one r per call takes 22 calls, each an r the batched calls hold
    assert len(evaluated) == 22 and len(batched) <= 6
    assert {rs[0] for rs in evaluated} <= {r for rs in batched for r in rs}


def test_threshold_stops_at_float_resolution_for_a_tiny_tol(monkeypatch):
    # bisecting [0, 1] down to adjacent floats near 0.35 takes 54 levels
    count_encodes(monkeypatch, limit=1 + -(-64 // recovery._LEVELS))
    assert threshold_squeezing(0.5, tol=1e-300) == pytest.approx(0.5 * LN2, abs=1e-12)


def _search_outcome(search):
    try:
        return search().hex()
    except ValueError as exc:
        return type(exc), str(exc)


@given(target=st.floats(min_value=0.2, max_value=1.2), log_tol=st.floats(min_value=-300.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_threshold_equals_the_one_radius_bisection(target, log_tol):
    # targets from met at r = 0 through reachable to unreachable (>= 1);
    # tols from below float resolution to wider than the bracket
    tol = 10.0**log_tol
    batched = _search_outcome(lambda: threshold_squeezing(target, tol=tol))
    assert batched == _search_outcome(lambda: bisect_threshold(target, tol))


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
