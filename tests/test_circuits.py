"""Circuit IR validation, text serialization, and Gaussian interpretation."""

import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gaussian_state
from oracles import step_run

from cvrep import gaussian as g
from cvrep.circuits import (
    BeamSplitterPM,
    Circuit,
    CircuitParseError,
    Discard,
    Displace,
    ERASURE_TAGS,
    FeedforwardDisplace,
    Fourier,
    InverseFourier,
    Measure,
    PhaseShift,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
    TwoModeSqueeze,
    decoder_matrix,
    ideal_decoder,
    ideal_encoder,
    op_map,
    parse,
    run,
    serialize,
    symplectic_of,
)
from cvrep.circuits.ir import OPS

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# IR construction and validation
# ---------------------------------------------------------------------------


def test_ops_are_immutable_and_typed():
    op = Qnd(5, 4, -2.0)
    assert (op.control, op.target, op.gain) == (5, 4, -2.0)
    with pytest.raises(AttributeError):
        op.gain = 1.0


def test_circuit_tracks_wires_and_registers():
    circuit = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(1, 2, 1.0),
            Measure(2, "x", "m1"),
            FeedforwardDisplace("m1", 3, "x", 0.5),
            Discard(1),
        ),
    )
    assert circuit.n_modes == 3
    assert not circuit.is_unitary()
    assert run(circuit, g.vacuum(3), average=True).labels == (3,)
    assert len(circuit) == 4


def test_circuit_rejects_use_of_a_measured_wire():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"), Qnd(1, 2, 1.0)))


def test_circuit_rejects_use_of_a_discarded_wire():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Discard(2), PhaseShift(2, 0.3)))


def test_circuit_rejects_feedforward_from_an_unwritten_register():
    with pytest.raises(ValueError):
        Circuit(labels=(1,), ops=(FeedforwardDisplace("never", 1, "x", 1.0),))


def test_circuit_rejects_unknown_wires():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 2), ops=(Qnd(1, 7, 1.0),))


def test_circuit_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Circuit(labels=(1, 1), ops=())


def test_squeeze_factor_rejects_zero():
    with pytest.raises(ValueError):
        SqueezeFactor(1, 0.0)


_TEXT_FIELDS = {"basis": "x", "reg": "m", "quad": "p"}


def make_op(spec, wires, reals):
    """An op of ``spec``'s type from its wire and real field values, in field order."""
    wires, reals = iter(wires), iter(reals)
    return spec.make(
        *(
            next(wires) if kind is int else next(reals) if kind is float else _TEXT_FIELDS[key]
            for key, _, kind in spec.fields
        )
    )


NON_FINITE_CASES = [
    pytest.param(spec, i, bad, id=f"{spec.tag}-{key}-{bad}")
    for spec in OPS.values()
    for i, key in enumerate(key for key, _, kind in spec.fields if kind is float)
    for bad in (math.inf, math.nan)
]


@pytest.mark.parametrize("spec, i, bad", NON_FINITE_CASES)
def test_every_real_field_rejects_non_finite_values(spec, i, bad):
    reals = [0.5] * sum(kind is float for _, _, kind in spec.fields)
    make_op(spec, (1, 2), reals)
    reals[i] = bad
    with pytest.raises(ValueError, match="finite"):
        make_op(spec, (1, 2), reals)


def test_measure_register_names_are_identifiers():
    with pytest.raises(ValueError):
        Measure(1, "x", "2bad name")
    with pytest.raises(ValueError):
        Measure(1, "q", "m1")


def test_point_transform_lifts_to_a_symplectic_block_pair():
    # each ideal decoder is the point transform x -> A x, so its symplectic
    # map is the block pair diag(A, A^-T)
    for tag in ERASURE_TAGS:
        A = decoder_matrix(tag)
        n = A.shape[0]
        S = symplectic_of(ideal_decoder(tag)).matrix
        np.testing.assert_allclose(S[:n, :n], A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(S[n:, n:], np.linalg.inv(A).T, rtol=0, atol=1e-12)
        assert not S[:n, n:].any() and not S[n:, :n].any()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_is_line_oriented_and_readable():
    circuit = Circuit(
        labels=(1, 4, 5),
        ops=(Qnd(5, 4, -2.0), SqueezeFactor(1, 0.5), Measure(4, "x", "m1"),
             FeedforwardDisplace("m1", 5, "x", 1.0)),
    )
    text = serialize(circuit)
    lines = text.splitlines()
    assert lines[0] == "MODES 1 4 5"
    assert lines[1] == "QND c=5 t=4 gain=-2"
    assert lines[2] == "SQ mode=1 factor=0.5"
    assert lines[3] == "MEAS mode=4 basis=x reg=m1"
    assert lines[4] == "FF reg=m1 target=5 quad=x gain=1"


def test_parse_round_trip_covers_every_op_kind():
    circuit = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(1, 2, 0.75),
            BeamSplitterPM(1, 2),
            SqueezeFactor(3, -1.25),
            PhaseShift(2, 0.5),
            Fourier(1),
            InverseFourier(1),
            Pi(2),
            Swap(1, 3),
            Displace(3, 1.5 - 2.5j),
            TwoModeSqueeze(1, 2, 0.3),
            Measure(2, "p", "k"),
            FeedforwardDisplace("k", 3, "p", -0.5),
            Discard(1),
        ),
    )
    assert parse(serialize(circuit)) == circuit


@given(
    gain=st.floats(min_value=-50, max_value=50, allow_nan=False),
    factor=st.floats(min_value=0.01, max_value=40).flatmap(
        lambda m: st.sampled_from([m, -m])
    ),
)
@settings(max_examples=80)
def test_round_trip_is_bit_stable_for_any_parameters(gain, factor):
    circuit = Circuit(labels=(1, 2), ops=(Qnd(2, 1, gain), SqueezeFactor(2, factor)))
    again = parse(serialize(circuit))
    assert again.ops[0].gain == gain
    assert again.ops[1].factor == factor


def test_parse_accepts_comments_and_blank_lines():
    text = """
    # decoder fragment
    MODES 1 4 5

    QND c=5 t=4 gain=-2   # inline note
    SWAP a=1 b=5
    """
    circuit = parse(text)
    assert circuit.labels == (1, 4, 5)
    assert circuit.ops == (Qnd(5, 4, -2.0), Swap(1, 5))


def test_parse_without_header_infers_contiguous_labels():
    circuit = parse("QND c=1 t=3 gain=2\n")
    assert circuit.labels == (1, 2, 3)


def test_parse_rejects_malformed_input():
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2\n")  # missing field
    with pytest.raises(CircuitParseError):
        parse("WIBBLE mode=1\n")
    with pytest.raises(CircuitParseError):
        parse("MODES 1 2\nMODES 1 2\n")
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2 gain=banana\n")
    with pytest.raises(CircuitParseError):
        parse("QND c=1 t=2 gain=1\nMODES 1 2\n")  # header not first


def test_parse_surfaces_ir_validation_failures():
    with pytest.raises(ValueError):
        parse("MODES 1 2\nMEAS mode=1 basis=x reg=m\nQND c=1 t=2 gain=1\n")


# ---------------------------------------------------------------------------
# interpreter: op_map and symplectic_of
# ---------------------------------------------------------------------------


def test_empty_circuit_is_the_identity_map():
    S = symplectic_of(Circuit(labels=(1, 2), ops=()))
    np.testing.assert_array_equal(S.matrix, np.eye(4))
    np.testing.assert_array_equal(S.displacement, np.zeros(4))


def _swap(state, i, j):
    """Exchange modes i and j by permuting the state's coordinates."""
    n = state.n_modes
    perm = np.arange(2 * n)
    perm[[i, j, n + i, n + j]] = [j, i, n + j, n + i]
    return g.GaussianState(state.mean[perm], state.cov[np.ix_(perm, perm)])


def reference_gate(state, op):
    """``op`` on wires (1, 2) of ``state``: Swap by permuting coordinates, Pi
    as the half-turn PhaseShift, any other op as its one-op circuit through run."""
    if isinstance(op, Swap):
        return _swap(state, 0, 1)
    if isinstance(op, Pi):
        op = PhaseShift(op.mode, math.pi)
    return run(Circuit((1, 2), (op,)), state).state


GATE_LIBRARY_CASES = [
    (op, lambda s, op=op: reference_gate(s, op))
    for op in (
        BeamSplitterPM(1, 2),
        SqueezeFactor(2, -1.5),
        PhaseShift(1, 0.7),
        Fourier(2),
        InverseFourier(1),
        TwoModeSqueeze(1, 2, 0.4),
        Displace(1, 1 - 1j),
        Pi(2),
        Swap(1, 2),
        Qnd(1, 2, 1.5),
    )
]


@pytest.mark.parametrize("op, gate", GATE_LIBRARY_CASES)
def test_op_map_agrees_with_the_gate_library(op, gate, rng):
    state = random_gaussian_state(rng, 2)
    via_map = op_map(op, (1, 2)).apply(state)
    via_gate = gate(state)
    np.testing.assert_allclose(via_map.mean, via_gate.mean, atol=1e-12)
    np.testing.assert_allclose(via_map.cov, via_gate.cov, atol=1e-12)


def test_gate_library_cases_cover_every_unitary_op():
    unitary = {cls for cls, spec in OPS.items() if spec.unitary}
    assert {type(op) for op, _ in GATE_LIBRARY_CASES} == unitary


@pytest.mark.parametrize("spec", [spec for spec in OPS.values() if not spec.unitary], ids=attrgetter("tag"))
def test_op_map_rejects_every_non_unitary_op(spec):
    with pytest.raises(TypeError, match="no symplectic representation"):
        op_map(make_op(spec, (1, 2), [0.5]), (1, 2))


def test_pi_and_swap_blocks_are_exact():
    S_pi = op_map(Pi(1), (1,)).matrix
    np.testing.assert_array_equal(S_pi, -np.eye(2))
    S_swap = op_map(Swap(1, 2), (1, 2)).matrix
    state = g.tensor(g.coherent(1 + 0j), g.coherent(0 + 2j))
    swapped = g.GaussianState(S_swap @ state.mean, S_swap @ state.cov @ S_swap.T)
    np.testing.assert_array_equal(swapped.mean, g.tensor(g.coherent(2j), g.coherent(1)).mean)


def test_symplectic_of_rejects_non_unitary_circuits():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(TypeError):
        symplectic_of(circuit)


def test_symplectic_of_respects_label_positions():
    # gain flows control -> target by label, independent of label order
    circuit = Circuit(labels=(4, 1), ops=(Qnd(1, 4, 2.0),))
    S = symplectic_of(circuit).matrix
    # position 0 holds label 4 (target), position 1 holds label 1 (control)
    assert S[0, 1] == 2.0


def test_encoder_point_action_matches_the_share_pattern():
    # On the non-squeezed input coordinates (x_in, and the two ancilla
    # quadratures that carry finite variance) the five x outputs read
    # (x+y, y-x, y-z, z+y, z); remaining coefficients touch only ancilla
    # quadratures whose variance vanishes as e^{-2r}.
    T = symplectic_of(ideal_encoder()).matrix[:5, :]
    x_in = np.eye(10)[0]
    y = T[1] + x_in  # row 2 reads y - x
    z = T[4]  # row 5 reads z
    surviving = [0, 6, 9]  # x_1, p_2, p_5
    for got, want in [
        (T[0], x_in + y),
        (T[2], y - z),
        (T[3], z + y),
    ]:
        np.testing.assert_array_equal(got[surviving], want[surviving])
        # the mismatch lives entirely on squeezed ancilla x coordinates
        mismatch = np.nonzero(got - want)[0]
        assert set(mismatch) <= {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# interpreter: run
# ---------------------------------------------------------------------------


def test_run_executes_unitary_ops_in_order():
    circuit = Circuit(labels=(1, 2), ops=(Displace(1, 1 + 0j), Qnd(1, 2, 2.0)))
    result = run(circuit, g.vacuum(2))
    assert result.labels == (1, 2)
    assert result.state.mean[1] == pytest.approx(2 * SQRT2)


def test_run_checks_the_state_size():
    circuit = Circuit(labels=(1, 2), ops=())
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(3))


def test_run_with_forced_outcome_and_feedforward():
    circuit = Circuit(
        labels=(1, 2),
        ops=(
            Displace(1, 2 + 0j),
            Measure(1, "x", "m"),
            FeedforwardDisplace("m", 2, "x", -0.5),
        ),
    )
    result = run(circuit, g.vacuum(2), forced={"m": 4.0})
    assert result.labels == (2,)
    assert result.records["m"].outcome == 4.0
    assert result.state.mean[0] == pytest.approx(-2.0)
    assert result.state.n_modes == 1
    assert result.labels.index(2) == 0


def test_run_rejects_unknown_forced_registers():
    circuit = Circuit(labels=(1,), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(1), forced={"nope": 0.0})


def test_run_requires_an_outcome_policy_for_measurements():
    circuit = Circuit(labels=(1,), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError):
        run(circuit, g.vacuum(1))


def test_run_average_policy_uses_the_running_mean():
    circuit = Circuit(labels=(1, 2), ops=(Displace(1, 3 + 0j), Measure(1, "x", "m")))
    result = run(circuit, g.vacuum(2), average=True)
    assert result.records["m"].outcome == pytest.approx(3 * SQRT2)


def test_run_seeded_sampling_is_reproducible():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    out_a = run(circuit, g.vacuum(2), rng=np.random.default_rng(5))
    out_b = run(circuit, g.vacuum(2), rng=np.random.default_rng(5))
    assert out_a.records["m"].outcome == out_b.records["m"].outcome


def test_run_discard_drops_the_right_wire():
    circuit = Circuit(labels=(1, 2, 3), ops=(Displace(2, 1 + 1j), Discard(1)))
    result = run(circuit, g.vacuum(3))
    assert result.labels == (2, 3)
    assert result.state.mean[0] == pytest.approx(SQRT2)
    assert result.state.mean[1] == 0.0


def random_unitary_circuit(rng, labels):
    """Every unitary op type three times, shuffled, on random wires of ``labels``."""
    specs = [spec for spec in OPS.values() if spec.unitary] * 3
    ops = []
    for k in rng.permutation(len(specs)):
        wires = rng.choice(labels, size=2, replace=False).tolist()
        reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
        ops.append(make_op(specs[k], wires, reals.tolist()))
    return Circuit(labels, tuple(ops))


def test_run_matches_symplectic_of_on_unitary_circuits(rng):
    adjacent = Circuit(
        labels=(1, 2, 3),
        ops=(
            Qnd(2, 3, -0.5),
            BeamSplitterPM(1, 3),
            SqueezeFactor(2, 2.0),
            Swap(1, 2),
            Fourier(3),
        ),
    )
    # Row-indexing mistakes only show when gates hit non-adjacent modes of a
    # wide state: twelve scattered, unsorted labels.
    scattered = random_unitary_circuit(rng, (23, 2, 41, 7, 13, 5, 37, 11, 3, 29, 17, 31))
    for circuit in (adjacent, scattered):
        state = random_gaussian_state(rng, circuit.n_modes)
        stepped = run(circuit, state).state
        fused = symplectic_of(circuit).apply(state)
        np.testing.assert_allclose(fused.mean, stepped.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused.cov, stepped.cov, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# interpreter: the outcome-averaged run
# ---------------------------------------------------------------------------


def test_run_average_adds_the_fed_forward_outcome_variance():
    # Averaged over x1, x2 + x1 keeps the variance of both: 1/2 + 1/2.
    circuit = parse("QND c=1 t=2 gain=1\nMEAS mode=1 basis=x reg=m\n")
    result = run(circuit, g.vacuum(2), average=True)
    assert result.labels == (2,)
    assert result.state.cov[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert result.state.cov[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert result.records["m"].outcome == 0.0


def test_run_average_rejects_forced_outcomes():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError, match="average"):
        run(circuit, g.vacuum(2), forced={"m": 0.0}, average=True)


def test_run_average_rejects_an_rng():
    circuit = Circuit(labels=(1, 2), ops=(Measure(1, "x", "m"),))
    with pytest.raises(ValueError, match="average"):
        run(circuit, g.vacuum(2), rng=np.random.default_rng(0), average=True)


@pytest.mark.parametrize("average", [False, True])
def test_run_refuses_to_discard_every_mode(average):
    with pytest.raises(ValueError, match="every mode"):
        run(Circuit(labels=(1,), ops=(Discard(1),)), g.vacuum(1), average=average)


def _measured_circuit(rng, basis):
    """Gates, one homodyne of wire 2 fed forward to wires 1 and 3, gates, a discard."""
    before = random_unitary_circuit(rng, (1, 2, 3, 4)).ops[:12]
    after = random_unitary_circuit(rng, (1, 3, 4)).ops[:6]
    middle = (
        Measure(2, basis, "m"),
        FeedforwardDisplace("m", 1, "x", float(rng.uniform(-2, 2))),
        FeedforwardDisplace("m", 3, "p", float(rng.uniform(-2, 2))),
    )
    return Circuit((1, 2, 3, 4), before + middle + after + (Discard(4),)), len(before)


@pytest.mark.parametrize("basis", ["x", "p"])
def test_run_average_is_the_mixture_of_forced_outcomes(rng, basis):
    # Each forced outcome gives the same covariance and a mean linear in the
    # outcome m ~ N(a, s^2), so the average over m is exactly the midpoint of
    # the outcomes a +- s, plus the spread of their means.
    for _ in range(5):
        circuit, k = _measured_circuit(rng, basis)
        state = random_gaussian_state(rng, 4)
        prefix = run(circuit.with_ops(circuit.ops[:k]), state).state
        i = {"x": 1, "p": 5}[basis]  # wire 2's measured quadrature in the 4-mode prefix
        a, s = prefix.mean[i], math.sqrt(prefix.cov[i, i])
        lo, hi = (run(circuit, state, forced={"m": a + sign * s}).state for sign in (-1, 1))
        half = (hi.mean - lo.mean) / 2
        averaged = run(circuit, state, average=True)
        assert averaged.labels == (1, 3)
        assert averaged.records["m"].outcome == pytest.approx(a, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(averaged.state.mean, (hi.mean + lo.mean) / 2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(averaged.state.cov, lo.cov + np.outer(half, half), rtol=0, atol=1e-10)


def random_circuit_with_discards(rng, labels, n_ops):
    """Random unitary ops on the live wires, with a Discard now and then; two wires survive."""
    live = list(labels)
    specs = [spec for spec in OPS.values() if spec.unitary]
    ops = []
    for _ in range(n_ops):
        if len(live) > 2 and rng.random() < 0.2:
            ops.append(Discard(live.pop(rng.integers(len(live)))))
            continue
        wires = rng.choice(live, size=2, replace=False).tolist()
        reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
        ops.append(make_op(specs[rng.integers(len(specs))], wires, reals.tolist()))
    return Circuit(labels, tuple(ops))


def assert_matches_stepped(result, stepped):
    """``run``'s result agrees with ``oracles.step_run``'s, to rounding that grows with the entries."""
    mean, cov, labels, outcomes = stepped
    assert result.labels == labels
    assert list(result.records) == list(outcomes)
    scale = max(1.0, np.abs(cov).max(), np.abs(mean).max())
    np.testing.assert_allclose(result.state.mean, mean, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(result.state.cov, cov, rtol=0, atol=1e-12 * scale)
    got = [record.outcome for record in result.records.values()]
    np.testing.assert_allclose(got, list(outcomes.values()), rtol=0, atol=1e-12 * scale)


@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_fold_agrees_with_the_stepped_run_on_unitary_circuits_with_discards(seed, n_ops):
    # squeezers here reach entries of ~1e4
    rng = np.random.default_rng(seed)
    circuit = random_circuit_with_discards(rng, (6, 2, 9, 4, 1, 7), n_ops)
    state = random_gaussian_state(rng, circuit.n_modes)
    stepped = step_run(circuit, state.mean, state.cov)
    assert_matches_stepped(run(circuit, state), stepped)
    assert_matches_stepped(run(circuit, state, average=True), stepped)


def random_measured_circuit(rng, labels):
    """Ten random gates, two homodynes, three feedforwards and a discard, in random
    order on the live wires of ``labels``; a feedforward drawn before any
    homodyne waits for the first one.  Returns the circuit and its registers."""
    specs = [spec for spec in OPS.values() if spec.unitary]
    n_wires = {spec.tag: sum(kind is int for _, _, kind in spec.fields) for spec in specs}
    live, ops, registers, waiting = list(labels), [], [], 0
    for kind in rng.permutation(["gate"] * 10 + ["measure"] * 2 + ["feedforward"] * 3 + ["discard"]):
        if kind == "gate":
            spec = rng.choice([s for s in specs if n_wires[s.tag] <= len(live)])
            wires = rng.choice(live, size=n_wires[spec.tag], replace=False).tolist()
            reals = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 1.2, size=2)
            ops.append(make_op(spec, wires, reals.tolist()))
        elif kind in ("measure", "discard"):
            mode = live.pop(rng.integers(len(live)))
            if kind == "discard":
                ops.append(Discard(mode))
                continue
            registers.append(f"m{len(registers)}")
            ops.append(Measure(mode, str(rng.choice(["x", "p"])), registers[-1]))
            ops.extend(_feedforward(rng, registers, live) for _ in range(waiting))
            waiting = 0
        elif registers:
            ops.append(_feedforward(rng, registers, live))
        else:
            waiting += 1
    return Circuit(labels, tuple(ops)), registers


def _feedforward(rng, registers, live):
    register = registers[rng.integers(len(registers))]
    return FeedforwardDisplace(register, int(rng.choice(live)), str(rng.choice(["x", "p"])), float(rng.uniform(-2, 2)))


@pytest.mark.parametrize("seed", range(40))
def test_run_matches_the_stepped_oracle_on_measured_circuits(seed):
    rng = np.random.default_rng(seed)
    circuit, registers = random_measured_circuit(rng, (1, 2, 3, 4))
    state = random_gaussian_state(rng, 4)
    assert [type(op) for op in circuit.ops].count(FeedforwardDisplace) == 3
    forced = {register: float(rng.normal(scale=2)) for register in registers}
    result = run(circuit, state, forced=forced)
    assert_matches_stepped(result, step_run(circuit, state.mean, state.cov, forced=forced))
    assert {r: record.outcome for r, record in result.records.items()} == forced
    # sampled, and sampled with the first outcome forced: the same draws
    # from generators that end in the same state
    for partial in ({}, {registers[0]: forced[registers[0]]}):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        result = run(circuit, state, forced=partial, rng=ours)
        assert_matches_stepped(result, step_run(circuit, state.mean, state.cov, forced=partial, rng=theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_run_reports_a_degenerate_measurement():
    circuit = Circuit((1, 2), (SqueezeFactor(1, math.exp(-17.0)), Measure(1, "x", "m")))
    with pytest.raises(g.DegenerateMeasurementError, match=r"x\[0\]"):
        run(circuit, g.vacuum(2), forced={"m": 0.0})
    with pytest.raises(g.DegenerateMeasurementError):
        run(circuit, g.vacuum(2), rng=np.random.default_rng(0))
