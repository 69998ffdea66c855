"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they print.  Every criterion states its own tolerance; failures carry
the measured value so a regression is diagnosable from the log alone.
"""

import json
import time
from itertools import combinations
from math import comb, log

import numpy as np

from cvrep.circuits import (
    ERASURE_TAGS,
    Circuit,
    BeamSplitterPM,
    Measure,
    Qnd,
    SqueezeFactor,
    closed_form_fidelity,
    decoder_matrix,
    ideal_decoder,
    ideal_encoded_state,
    optical_encoded_state,
    recovery_fidelity,
    rewrite,
    run,
    symplectic_of,
    synthesize,
    threshold_squeezing,
)
from cvrep.codes import (
    FIVE_MODE_ERASURES,
    ErasurePattern,
    build_five_mode_code,
    build_general_code,
    check_correctable,
    edge_basis,
    erasure_for_vertex,
    nullifier_variances,
)
from cvrep.homology import (
    boundary_matrix,
    build_homological_code,
    butterfly_matrix,
    rowspaces_equal,
)

from conftest import random_gaussian_state


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_fidelity_formulas():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        for alpha in (0.0, 1.0, 2.0j, 1.0 + 1.0j):
            for tag in ERASURE_TAGS:
                dev = abs(recovery_fidelity(tag, r, alpha) - closed_form_fidelity(tag, r))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, "fidelity formulas", ok, f"max |dev| = {worst:.3e}, runtime {elapsed:.2f}s")


def test_criterion_2_threshold_reproduction(capsys):
    from cvrep.cli import main

    rc = main(["threshold", "--target", str(2.0 / 3.0)])
    out = capsys.readouterr().out
    with capsys.disabled():
        value = float(out.strip().split("\n")[0])
        err = abs(value - log(2.0))
        ok = rc == 0 and err <= 1e-6
        _report(2, "threshold ln 2", ok, f"r* = {value:.9f}, |r* - ln 2| = {err:.2e}")


def test_criterion_3_correctability_theorem():
    start = time.perf_counter()
    failures = []

    for n in (4, 5, 6, 7):
        code = build_general_code(n)
        basis = edge_basis(n)
        for vertex in range(1, n + 1):
            if not check_correctable(code, erasure_for_vertex(code, basis, vertex)):
                failures.append(f"general N={n} vertex {vertex}")

    five = build_five_mode_code()
    for vertex, erased in FIVE_MODE_ERASURES.items():
        if not check_correctable(five, ErasurePattern(frozenset(erased), vertex)):
            failures.append(f"five-mode vertex {vertex}")

    # negative controls: erasing modes adjacent to the recovery vertex
    if check_correctable(five, ErasurePattern(frozenset({0, 1}))):
        failures.append("five-mode negative control unexpectedly correctable")
    code4 = build_general_code(4)
    basis4 = edge_basis(4)
    touching = frozenset(
        basis4.index(j, k) for j, k in combinations(range(1, 5), 2) if j in (1, 2) or k in (1, 2)
    )
    if check_correctable(code4, ErasurePattern(touching)):
        failures.append("general N=4 negative control unexpectedly correctable")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(
        3,
        "correctability theorem",
        ok,
        f"{'all patterns behave' if not failures else '; '.join(failures)}, runtime {elapsed:.2f}s",
    )


def test_criterion_4_generator_bookkeeping():
    worst_defect = 0.0
    bad = []
    for n in range(4, 9):
        code = build_general_code(n)
        n_x, n_p = code.x_rows.shape[0], code.p_rows.shape[0]
        expected_x, expected_p = comb(n - 1, 2), n - 2
        total = comb(n, 2) - 1
        rank = np.linalg.matrix_rank(code.generator_matrix)
        if (n_x, n_p) != (expected_x, expected_p) or n_x + n_p != total or rank != total:
            bad.append(f"N={n}: {n_x}+{n_p} rank {rank}")
        worst_defect = max(worst_defect, code.orthogonality_defect())
    ok = not bad and worst_defect <= 1e-12
    _report(
        4,
        "generator bookkeeping",
        ok,
        f"counts/rank ok for N=4..8, max |v.w| = {worst_defect:.3e}"
        if not bad
        else "; ".join(bad),
    )


def test_criterion_5_homological_equivalence():
    problems = []
    for n in range(4, 8):
        graph_code = build_general_code(n)
        hom_code = build_homological_code(n)
        if not rowspaces_equal(graph_code.x_rows, hom_code.x_rows):
            problems.append(f"N={n} X row spaces differ")
        if not rowspaces_equal(graph_code.p_rows, hom_code.p_rows):
            problems.append(f"N={n} P row spaces differ")
        for k in (0, 1):
            square = boundary_matrix(n, k) @ boundary_matrix(n, k + 1)
            if square.dtype.kind != "i" or np.any(square != 0):
                problems.append(f"N={n} d{k} d{k+1} != 0")
        butterfly = butterfly_matrix(n)
        for col in range(n):
            minor = np.delete(butterfly, col, axis=1)
            if abs(round(float(np.linalg.det(minor)))) < 1:
                problems.append(f"N={n} butterfly minor {col} singular")
    ok = not problems
    _report(
        5,
        "homological equivalence",
        ok,
        "row spaces match, dd = 0, all butterfly minors invertible (N=4..7)"
        if ok
        else "; ".join(problems),
    )


def test_criterion_6_synthesis_soundness():
    exact = True
    for tag in ("E2", "E3", "E4"):
        circuit = ideal_decoder(tag)
        n = len(circuit.labels)
        achieved = symplectic_of(circuit).matrix[:n, :n]
        exact &= np.array_equal(achieved, decoder_matrix(tag))

    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        while True:
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            if abs(np.linalg.det(A)) > 0.5:
                break
        circuit = synthesize(A)
        achieved = symplectic_of(circuit).matrix[:n, :n]
        worst = max(worst, float(np.max(np.abs(achieved - A))))
    ok = exact and worst <= 1e-9
    _report(
        6,
        "synthesis soundness",
        ok,
        f"decoder matrices exact: {exact}, worst of 200 round-trips = {worst:.3e}",
    )


def _rewrite_draw(rule: str, rng) -> tuple[Circuit, int]:
    g = lambda: float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
    if rule == "R1":
        while True:
            a, b = g(), g()
            if abs(1.0 + a * b) > 1e-3:
                break
        return Circuit((1, 2), (Qnd(1, 2, a), Qnd(2, 1, b))), 0
    if rule == "R2":
        return Circuit((1, 2), (SqueezeFactor(1, g()), Qnd(1, 2, g()))), 0
    if rule == "R3":
        return Circuit((1, 2), (SqueezeFactor(2, g()), Qnd(1, 2, g()))), 0
    if rule == "R4":
        return Circuit((1, 2, 3), (Qnd(1, 2, g()), Qnd(2, 3, g()))), 0
    if rule == "R5":
        return Circuit((1, 2, 3), (Qnd(1, 2, g()), Qnd(3, 1, g()))), 0
    if rule == "R6":
        return Circuit((1, 2), (Qnd(1, 2, g()),)), 0
    if rule == "R7":
        wires = tuple(int(w) for w in rng.permutation([1, 2]))
        return Circuit((1, 2), (BeamSplitterPM(*wires),)), 0
    # R8: the unit coupling pair on a random wire ordering
    wires = tuple(int(w) for w in rng.permutation([1, 2]))
    return Circuit((1, 2), (Qnd(wires[0], wires[1], 1.0), Qnd(wires[1], wires[0], -1.0))), 0


def test_criterion_7_rewrite_identities():
    rng = np.random.default_rng(17)
    worst = 0.0
    for rule in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"):
        for _ in range(50):
            before, pos = _rewrite_draw(rule, rng)
            after = rewrite(before, rule, pos)
            lhs, rhs = symplectic_of(before), symplectic_of(after)
            worst = max(
                worst,
                float(np.max(np.abs(lhs.matrix - rhs.matrix))),
                float(np.max(np.abs(lhs.displacement - rhs.displacement))),
            )
    # measure-control: compare the output state channel on random inputs
    for _ in range(50):
        gain = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        before = Circuit((1, 2), (Qnd(1, 2, gain), Measure(1, "x", "m")))
        after = rewrite(before, "MC", 0)
        state = random_gaussian_state(rng, 2)
        outcome = float(rng.normal(scale=2.0))
        lhs = run(before, state.copy(), forced={"m": outcome})
        rhs = run(after, state.copy(), forced={"m": outcome})
        worst = max(
            worst,
            float(np.max(np.abs(lhs.state.mean - rhs.state.mean))),
            float(np.max(np.abs(lhs.state.cov - rhs.state.cov))),
        )
    ok = worst <= 1e-10
    _report(7, "rewrite identities", ok, f"worst semantic deviation = {worst:.3e}")


def test_criterion_8_nullifier_scaling():
    grid = np.array([1.0, 2.0, 3.0])
    code = build_five_mode_code()
    worst = 0.0
    for encode in (ideal_encoded_state, optical_encoded_state):
        logs = np.array([np.log(nullifier_variances(code, encode(r))) for r in grid])
        for k in range(logs.shape[1]):
            slope = float(np.polyfit(grid, logs[:, k], 1)[0])
            worst = max(worst, abs(slope + 2.0))
    ok = worst <= 0.01
    _report(8, "nullifier scaling", ok, f"max |slope + 2| = {worst:.2e} over r in {{1,2,3}}")


def test_criterion_9_spacetime_checker():
    from cvrep.replication import builtin_configuration, find_chain, select_code, validate

    problems = []
    for name in ("fig2a", "fig2b"):
        if not validate(builtin_configuration(name)).valid:
            problems.append(f"{name} should be valid")
    report = validate(builtin_configuration("fig2c"))
    if report.valid or [(v.kind, v.diamonds) for v in report.violations] != [
        ("unrelated-pair", (2, 3))
    ]:
        problems.append("fig2c should fail naming pair (2, 3)")
    fig4 = builtin_configuration("fig4")
    if not validate(fig4).valid:
        problems.append("fig4 should be valid")
    if find_chain(fig4) != (2, 1, 3):
        problems.append(f"fig4 chain {find_chain(fig4)} != (2, 1, 3)")
    if select_code(fig4).name != "five_mode":
        problems.append("fig4 should select the five-mode code")
    ok = not problems
    _report(
        9,
        "spacetime checker",
        ok,
        "fig2a/fig2b valid, fig2c names (2,3), fig4 chains (2,1,3) -> five_mode"
        if ok
        else "; ".join(problems),
    )
