"""Local rewrite rules: every rule preserves the window's action exactly.

Unitary rules are checked as symplectic maps over repeated random gain
draws; the measurement rule is checked as a channel by running both
circuits on random Gaussian states with matched outcome policies.
"""

import numpy as np
import pytest

from cvrep.circuits import (
    BeamSplitterPM,
    Circuit,
    Discard,
    FeedforwardDisplace,
    Measure,
    Pi,
    Qnd,
    RewriteError,
    SqueezeFactor,
    Swap,
    rewrite,
    rule_ids,
    run,
    symplectic_of,
)
from cvrep.gaussian import vacuum
from cvrep.tolerances import TOL

from conftest import random_gaussian_state

DRAWS = 50


def maps_equal(before: Circuit, after: Circuit) -> float:
    lhs = symplectic_of(before)
    rhs = symplectic_of(after)
    return max(
        float(np.max(np.abs(lhs.matrix - rhs.matrix))),
        float(np.max(np.abs(lhs.displacement - rhs.displacement))),
    )


def nonzero(rng, lo=0.2, hi=3.0):
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def test_rule_ids_lists_every_rule():
    assert rule_ids() == ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "MC")


# ---------------------------------------------------------------------------
# the eight unitary rules preserve the symplectic map
# ---------------------------------------------------------------------------


def test_r1_flips_a_coupling_pair(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        if abs(1.0 + a * b) < 1e-3:
            continue
        before = Circuit((1, 2), (Qnd(1, 2, a), Qnd(2, 1, b)))
        after = rewrite(before, "R1", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        kinds = [type(op) for op in after.ops]
        assert kinds == [SqueezeFactor, Qnd, Qnd, SqueezeFactor]
        assert after.ops[1].control == 2 and after.ops[2].control == 1


def test_r1_rejects_the_singular_gain_pair():
    before = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(2, 1, -1.0)))
    with pytest.raises(RewriteError, match="R8"):
        rewrite(before, "R1", 0)


def test_r2_slides_a_squeeze_past_the_control(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        before = Circuit((1, 2), (SqueezeFactor(1, a), Qnd(1, 2, b)))
        after = rewrite(before, "R2", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        assert after.ops == (Qnd(1, 2, a * b), SqueezeFactor(1, a))


def test_r2_literal_example():
    before = Circuit((1, 2), (SqueezeFactor(1, 2.0), Qnd(1, 2, 3.0)))
    after = rewrite(before, "R2", 0)
    assert after.ops == (Qnd(1, 2, 6.0), SqueezeFactor(1, 2.0))
    assert maps_equal(before, after) <= TOL.rewrite


def test_r3_slides_a_squeeze_past_the_target(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        before = Circuit((1, 2), (SqueezeFactor(2, a), Qnd(1, 2, b)))
        after = rewrite(before, "R3", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        assert after.ops == (Qnd(1, 2, b / a), SqueezeFactor(2, a))


def test_r4_slides_a_coupling_through_a_shared_middle_wire(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        before = Circuit((1, 2, 3), (Qnd(1, 2, a), Qnd(2, 3, b)))
        after = rewrite(before, "R4", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        assert after.ops == (Qnd(2, 3, b), Qnd(1, 3, a * b), Qnd(1, 2, a))


def test_r5_slides_a_coupling_through_a_shared_control(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        before = Circuit((1, 2, 3), (Qnd(1, 2, a), Qnd(3, 1, b)))
        after = rewrite(before, "R5", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        assert after.ops == (Qnd(3, 1, b), Qnd(1, 2, a), Qnd(3, 2, -a * b))


def test_r6_swaps_control_and_target_with_quarter_turns(rng):
    for _ in range(DRAWS):
        a = nonzero(rng)
        before = Circuit((1, 2), (Qnd(1, 2, a),))
        after = rewrite(before, "R6", 0)
        assert maps_equal(before, after) <= TOL.rewrite
        assert isinstance(after.ops[2], Qnd)
        assert after.ops[2].control == 2 and after.ops[2].gain == -a


def test_r7_decomposes_a_balanced_beam_splitter():
    before = Circuit((4, 9), (BeamSplitterPM(4, 9),))
    after = rewrite(before, "R7", 0)
    assert maps_equal(before, after) <= TOL.rewrite
    q1, q2, s1, s2, pi = after.ops
    assert (q1.gain, q2.gain) == (-1.0, 0.5)
    assert s1.factor == pytest.approx(np.sqrt(2.0))
    assert s2.factor == pytest.approx(1.0 / np.sqrt(2.0))
    assert isinstance(pi, Pi)


def test_r8_rebuilds_the_unit_coupling_pair_from_a_beam_splitter():
    before = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(2, 1, -1.0)))
    after = rewrite(before, "R8", 0)
    assert maps_equal(before, after) <= TOL.rewrite
    assert isinstance(after.ops[0], BeamSplitterPM)
    assert isinstance(after.ops[1], Swap)


def test_r8_requires_the_exact_unit_gains():
    before = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(2, 1, -0.999)))
    with pytest.raises(RewriteError, match="does not match"):
        rewrite(before, "R8", 0)


def test_rules_embedded_in_a_longer_circuit_keep_prefix_and_suffix(rng):
    for _ in range(DRAWS):
        a, b = nonzero(rng), nonzero(rng)
        if abs(1.0 + a * b) < 1e-3:
            continue
        prefix = (SqueezeFactor(3, 2.0),)
        suffix = (Swap(1, 3), Qnd(3, 2, 0.25))
        before = Circuit((1, 2, 3), prefix + (Qnd(1, 2, a), Qnd(2, 1, b)) + suffix)
        after = rewrite(before, "R1", 1)
        assert after.ops[:1] == prefix
        assert after.ops[-2:] == suffix
        assert maps_equal(before, after) <= TOL.rewrite


# ---------------------------------------------------------------------------
# the measurement rule preserves the whole channel
# ---------------------------------------------------------------------------


def test_mc_defers_a_measured_control_to_feedforward():
    before = Circuit((1, 2), (Qnd(1, 2, 1.5), Measure(1, "x", "m")))
    after = rewrite(before, "MC", 0)
    assert after.ops == (
        Measure(1, "x", "m"),
        FeedforwardDisplace("m", 2, "x", 1.5),
    )


def test_mc_preserves_the_output_state_for_forced_outcomes(rng):
    for _ in range(DRAWS):
        gain = nonzero(rng)
        before = Circuit((1, 2), (Qnd(1, 2, gain), Measure(1, "x", "m")))
        after = rewrite(before, "MC", 0)
        state = random_gaussian_state(rng, 2)
        outcome = float(rng.normal(scale=2.0))
        lhs = run(before, state.copy(), forced={"m": outcome})
        rhs = run(after, state.copy(), forced={"m": outcome})
        assert lhs.labels == rhs.labels == (2,)
        np.testing.assert_allclose(lhs.state.mean, rhs.state.mean, atol=TOL.rewrite)
        np.testing.assert_allclose(lhs.state.cov, rhs.state.cov, atol=TOL.rewrite)
        assert lhs.records["m"].outcome == rhs.records["m"].outcome == outcome


def test_mc_preserves_sampled_outcome_statistics(rng):
    # The measured quadrature commutes with the coupling, so the outcome
    # distribution is identical; with equal seeds the sampled runs agree.
    before = Circuit((1, 2), (Qnd(1, 2, -0.75), Measure(1, "x", "m")))
    after = rewrite(before, "MC", 0)
    state = random_gaussian_state(rng, 2)
    lhs = run(before, state.copy(), rng=np.random.default_rng(11))
    rhs = run(after, state.copy(), rng=np.random.default_rng(11))
    assert lhs.records["m"].outcome == pytest.approx(rhs.records["m"].outcome)
    np.testing.assert_allclose(lhs.state.mean, rhs.state.mean, atol=TOL.rewrite)
    np.testing.assert_allclose(lhs.state.cov, rhs.state.cov, atol=TOL.rewrite)


def test_mc_requires_an_x_measurement_on_the_control():
    on_target = Circuit((1, 2), (Qnd(1, 2, 1.0), Measure(2, "x", "m")))
    with pytest.raises(RewriteError, match="does not match"):
        rewrite(on_target, "MC", 0)
    in_p = Circuit((1, 2), (Qnd(1, 2, 1.0), Measure(1, "p", "m")))
    with pytest.raises(RewriteError, match="does not match"):
        rewrite(in_p, "MC", 0)


# ---------------------------------------------------------------------------
# rule naming and addressing
# ---------------------------------------------------------------------------


def _windows_matching_r2_and_mc():
    before = Circuit((1, 2), (SqueezeFactor(1, 2.0), Qnd(1, 2, 3.0)))
    mc_before = Circuit((1, 2), (Qnd(1, 2, 1.0), Measure(1, "x", "m")))
    rewrite(before, "R2", 0)
    rewrite(mc_before, "MC", 0)
    return before, mc_before


def test_unknown_rule_rejected():
    # only the names in rule_ids() are rules, though the windows match R2 and MC
    before, mc_before = _windows_matching_r2_and_mc()
    for circuit, rule in [
        (before, "R9"), (before, 0), (before, " R2"), (mc_before, "mc"),
    ]:
        with pytest.raises(RewriteError, match="unknown rule"):
            rewrite(circuit, rule, 0)


def test_old_rule_spellings_are_rejected():
    # a bare number, a lower-case name or a long name once aliased a rule
    before, mc_before = _windows_matching_r2_and_mc()
    for circuit, rule in [
        (before, 2), (before, "2"), (before, "r2"), (mc_before, "measure-control"),
    ]:
        with pytest.raises(RewriteError, match="unknown rule"):
            rewrite(circuit, rule, 0)


def test_window_must_fit_inside_the_op_list():
    before = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(2, 1, 0.5)))
    with pytest.raises(RewriteError, match="needs 2 op"):
        rewrite(before, "R1", 1)
    with pytest.raises(RewriteError, match="needs 2 op"):
        rewrite(before, "R1", -1)


def test_pattern_mismatch_names_the_window():
    before = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(2, 1, 0.5)))
    with pytest.raises(RewriteError, match=r"\[Qnd Qnd\]"):
        rewrite(before, "R2", 0)


def test_rewrite_never_mutates_its_input():
    ops = (Qnd(1, 2, 1.0), Qnd(2, 1, 0.5))
    before = Circuit((1, 2), ops)
    rewrite(before, "R1", 0)
    assert before.ops == ops


def test_vacuum_channel_sanity_after_r7():
    # Decomposing the beam splitter leaves the vacuum invariant, like the
    # beam splitter itself.
    before = Circuit((1, 2), (BeamSplitterPM(1, 2),))
    after = rewrite(before, "R7", 0)
    out = symplectic_of(after).apply(vacuum(2))
    np.testing.assert_allclose(out.cov, vacuum(2).cov, atol=TOL.rewrite)
    np.testing.assert_allclose(out.mean, 0.0, atol=TOL.rewrite)


def test_mc_preserves_the_outcome_averaged_state(rng):
    # Averaged over its outcome, a measurement nobody reads is a partial
    # trace, and one that is fed forward is a coupling and then a trace.
    for _ in range(DRAWS):
        gain = nonzero(rng)
        before = Circuit((1, 2), (Qnd(1, 2, gain), Measure(1, "x", "m")))
        after = rewrite(before, "MC", 0)
        traced = Circuit((1, 2), (Qnd(1, 2, gain), Discard(1)))
        state = random_gaussian_state(rng, 2)
        lhs = run(before, state, average=True)
        rhs = run(after, state, average=True)
        assert lhs.labels == rhs.labels == (2,)
        assert lhs.records["m"].outcome == pytest.approx(rhs.records["m"].outcome, abs=TOL.rewrite)
        for other in (rhs.state, run(traced, state).state):
            np.testing.assert_allclose(other.mean, lhs.state.mean, atol=TOL.rewrite)
            np.testing.assert_allclose(other.cov, lhs.state.cov, atol=TOL.rewrite)
