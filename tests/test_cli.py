"""End-to-end command-line checks: output shapes, exit codes, file I/O."""

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import OVERFLOWING_MATRICES

import cvrep
from cvrep import cli, codes, homology, replication
from cvrep.circuits import (
    REFERENCE_PIVOT_ROWS,
    SURVIVOR_MODES,
    BeamSplitterPM,
    Circuit,
    Discard,
    Fourier,
    InverseFourier,
    PhaseShift,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
    TwoModeSqueeze,
    decoder_matrix,
    interpreter,
    parse,
    recovery,
    serialize,
    synthesis,
    synthesize,
)
from cvrep.circuits.ir import OPS, _circuit, _columns, _Columns, _serialize_columns
from cvrep.cli import main
from cvrep.tolerances import TOL

LN2 = float(np.log(2.0))

# what `cvrep synth --error TAG` prints: E2 under REFERENCE_PIVOT_ROWS, the
# others under the default pivot preference
SYNTH_ERROR_CIRCUIT_TEXT = {
    "E2": (
        "MODES 1 4 5\n"
        "QND c=4 t=1 gain=-1\n"
        "QND c=5 t=4 gain=-2\n"
        "QND c=1 t=5 gain=1\n"
        "SQ mode=1 factor=-1\n"
        "SWAP a=1 b=5\n"
    ),
    "E3": (
        "MODES 1 3 5\n"
        "QND c=3 t=1 gain=-1\n"
        "QND c=5 t=1 gain=-1\n"
        "QND c=5 t=3 gain=2\n"
        "QND c=3 t=5 gain=-1\n"
        "QND c=1 t=5 gain=1\n"
    ),
    "E4": (
        "MODES 2 3 4\n"
        "QND c=3 t=2 gain=-1\n"
        "QND c=4 t=2 gain=-1\n"
        "QND c=4 t=3 gain=-1\n"
        "SQ mode=4 factor=-1\n"
        "QND c=3 t=4 gain=-0.5\n"
        "QND c=2 t=4 gain=-1\n"
        "SQ mode=2 factor=-1\n"
    ),
}

CSV_HEADER = "r,F1,F2,F3,F4,formula_F1,formula_F2,formula_F3,formula_F4,max_abs_dev"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# code build
# ---------------------------------------------------------------------------


def test_code_build_five(capsys):
    rc, out, err = run_cli(capsys, "code", "build", "five")
    assert rc == 0
    assert "code: five_mode" in out
    assert "modes: 5" in out
    assert "generators: 2 X + 2 P" in out
    assert "-1 -1 1 1 0 0 0 0 0 0" in out
    assert "commutation: max |v.w| = 0.000e+00 (ok)" in out


def test_code_build_six_equals_four_regions(capsys):
    rc, out, _ = run_cli(capsys, "code", "build", "six")
    assert rc == 0 and "code: general-4" in out and "modes: 6" in out
    rc, out4, _ = run_cli(capsys, "code", "build", "4")
    assert rc == 0 and out4 == out


def test_code_build_rejects_tiny_regions(capsys):
    rc, _, err = run_cli(capsys, "code", "build", "2")
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(capsys, "code", "build", "junk")
    assert rc == 2 and "expected 'five', 'six'" in err


def test_only_verify_by_vertex_builds_an_edge_basis(capsys, monkeypatch):
    # code build and verify each once built a basis nothing read: verify N
    # builds the one its vertex patterns read, and nothing else builds one
    built = []
    edge_basis = codes.edge_basis
    monkeypatch.setattr(codes, "edge_basis", lambda N: built.append(N) or edge_basis(N))
    for argv, expected in [
        (("verify", "6"), [6]),
        (("verify", "5", "--homology"), [5]),
        (("verify", "6", "--erase=1,2"), []),
        (("verify", "five"), []),
        (("code", "build", "6"), []),
        (("code", "build", "six"), []),
    ]:
        built.clear()
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0 and out and built == expected, argv
    for argv in (("code", "build", "3"), ("verify", "3")):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2 and err == "error: general code needs N >= 4, got 3\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_five_all_vertices(capsys):
    rc, out, err = run_cli(capsys, "verify", "five")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["code"] == "five_mode"
    assert len(report["patterns"]) == 4
    assert all(p["correctable"] for p in report["patterns"])
    assert err.count("correctable") == 4


def test_verify_five_uncorrectable_pair(capsys):
    rc, out, err = run_cli(capsys, "verify", "five", "--erase", "1,2")
    assert rc == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["patterns"] == [
        {"erased": [1, 2], "vertex": None, "correctable": False}
    ]
    assert "NOT correctable" in err


def test_verify_erase_validation(capsys):
    rc, _, err = run_cli(capsys, "verify", "five", "--erase", "0,9")
    assert rc == 2 and "out of range" in err
    rc, _, err = run_cli(capsys, "verify", "five", "--erase", "a,b")
    assert rc == 2 and "comma-separated" in err


def test_verify_homology_on_the_general_code(capsys):
    rc, out, err = run_cli(capsys, "verify", "6", "--homology")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["homology"]["x_rowspace_matches"] is True
    assert report["homology"]["p_rowspace_matches"] is True
    assert report["homology"]["boundary_squares_to_zero"] is True
    assert "X rows match, P rows match" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "24"),
        ("verify", "9", "--homology"),
        ("verify", "five", "--erase", "1,2"),
        ("spacetime", "--config", "fig4"),
        ("spacetime", "--config", "fig2c"),
    ],
)
def test_json_reports_are_json_dumps_with_indent_two(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc in (0, 1)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# what the reports hold, and what json treats apart: bools among ints,
# non-finite floats, non-ASCII text, int keys (as in boundary_shapes) and
# tuples, which json writes as lists
JSON_SCALARS = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
JSON_LEAVES = st.one_of(
    JSON_SCALARS,
    st.lists(st.integers()),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans())),
    st.lists(st.integers()).map(tuple),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats()), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(obj=JSON_VALUES)
def test_the_json_writer_is_json_dumps_with_indent_two(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 3}, [np.int64(1)], {"a": {1, 2}}])
def test_the_json_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(want.value)


def _pattern_route_verify(code, patterns, homological=False):
    """verify's stdout, stderr and exit code, rebuilt from ``correctable``, ``sorted`` and ``json.dumps``."""
    reports = [
        {"erased": sorted(m + 1 for m in pattern.erased), "vertex": pattern.recovery_vertex, "correctable": ok}
        for pattern, ok in zip(patterns, codes.correctable(code, patterns))
    ]
    err = "".join(f"erasure {r['erased']}: {'correctable' if r['correctable'] else 'NOT correctable'}\n" for r in reports)
    ok = all(r["correctable"] for r in reports)
    hom = None
    if homological:
        n = len(patterns)
        hom_code = homology.build_homological_code(n)
        x_match = homology.rowspaces_equal(hom_code.x_rows, code.x_rows)
        p_match = homology.rowspaces_equal(hom_code.p_rows, code.p_rows)
        shapes = {k: list(table.shape) for k, table in sorted(homology.chain_complex(n).boundary.items())}
        hom = {
            "boundary_squares_to_zero": True,
            "x_rowspace_matches": x_match,
            "p_rowspace_matches": p_match,
            "boundary_shapes": shapes,
        }
        err += f"homological construction: X rows {'match' if x_match else 'DIFFER'}, P rows {'match' if p_match else 'DIFFER'}\n"
        ok = ok and x_match and p_match
    report = {"code": code.name, "n_modes": code.n_modes, "patterns": reports, "homology": hom, "ok": ok}
    return json.dumps(report, indent=2) + "\n", err, 0 if ok else 1


@pytest.mark.parametrize("homological", [False, True], ids=["plain", "homology"])
def test_verify_n_is_the_pattern_route_s_report(capsys, homological):
    # verify N runs its vertex patterns as one mask; the report rebuilt
    # from erasure_for_vertex's patterns (each checked here against the
    # edges that miss its vertex) is the same text, for N = 4-24
    for n in range(4, 25):
        code, basis = codes.build_general_code(n), codes.edge_basis(n)
        patterns = [codes.erasure_for_vertex(code, basis, vertex) for vertex in range(1, n + 1)]
        for vertex, pattern in zip(range(1, n + 1), patterns):
            assert pattern.erased == {i for i, edge in enumerate(basis.edges) if vertex not in edge}
        argv = ("verify", str(n)) + (("--homology",) if homological else ())
        rc, out, err = run_cli(capsys, *argv)
        assert (out, err, rc) == _pattern_route_verify(code, patterns, homological), argv


def test_verify_five_is_the_pattern_route_s_report(capsys):
    # the table, and --erase with each of the 31 nonempty subsets of the modes
    five = codes.build_five_mode_code()
    table = [codes.erasure_for_vertex(five, None, vertex) for vertex in range(1, 5)]
    rc, out, err = run_cli(capsys, "verify", "five")
    assert (out, err, rc) == _pattern_route_verify(five, table)
    failed = 0
    for subset in range(1, 32):
        modes = [m for m in range(1, 6) if subset >> (m - 1) & 1]
        rc, out, err = run_cli(capsys, "verify", "five", f"--erase={','.join(map(str, modes[::-1]))}")
        assert (out, err, rc) == _pattern_route_verify(five, [codes.ErasurePattern({m - 1 for m in modes})]), modes
        failed += rc
    assert 0 < failed < 31


@pytest.mark.parametrize(
    "argv, svd_calls, qr_calls",
    [(("verify", "five"), 3, 0), (("verify", "24"), 6, 0), (("verify", "12", "--homology"), 6, 0)],
    ids=["five", "24", "12 homology"],
)
def test_verify_takes_each_block_factorization_once(capsys, monkeypatch, argv, svd_calls, qr_calls):
    # integer blocks are built and compared exactly, with no factorization.
    # A unit-pivot block takes no QR and no SVD of itself: one SVD of its
    # free columns W, for its scale, and one stacked SVD per shape of the
    # residuals with at least two rows and two columns that are not
    # monomial (four shapes on the vertex patterns; the X block's
    # erased-side residuals, the fifth shape, are monomial and take no
    # SVD).  The five-mode X block (a pivot of -2) takes each rank exactly
    # on its column slice, with no SVD; its P block takes one plain SVD of
    # its W and two stacked ones.  No command takes a QR
    calls = {"svd": 0, "qr": 0}

    def counting(name):
        honest = getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return honest(*args, **kwargs)

        return spy

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert calls == {"svd": svd_calls, "qr": qr_calls}


def test_verify_homology_rejected_for_five_mode(capsys):
    rc, _, err = run_cli(capsys, "verify", "five", "--homology")
    assert rc == 2 and "general construction" in err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", sorted(SYNTH_ERROR_CIRCUIT_TEXT))
def test_synth_error_prints_the_reference_circuit(capsys, tag):
    rc, out, err = run_cli(capsys, "synth", "--error", tag)
    assert (rc, out, err) == (0, SYNTH_ERROR_CIRCUIT_TEXT[tag], "")


def test_synth_check_reports_the_deviation(capsys):
    rc, out, err = run_cli(capsys, "synth", "--error", "E3", "--check")
    assert rc == 0
    assert out.startswith("MODES 1 3 5\n")
    assert "max |achieved - target| = " in err


@pytest.fixture
def synth_columns(monkeypatch):
    """The columns each synthesis in the test folds for its self-check, in order."""
    seen = []

    def fold(columns):
        seen.append(columns)
        return interpreter._fold_positions(columns)

    monkeypatch.setattr(synthesis, "_fold_positions", fold)
    return seen


def test_synth_check_folds_the_circuit_once(capsys, monkeypatch, synth_columns):
    # the check folds the elimination's columns once; no op, Circuit or
    # symplectic map is built on the way from the matrix to the text
    calls = {"symplectic_of": 0, "op": 0, "circuit": 0}
    decoder_matrix("E3")  # its ideal decoder's Circuit is built once, before the count

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (interpreter, synthesis, cvrep.circuits):
        monkeypatch.setattr(module, "symplectic_of", counting("symplectic_of", interpreter.symplectic_of))
    for spec in OPS.values():
        monkeypatch.setattr(spec.cls, "__init__", counting("op", spec.cls.__init__))
    monkeypatch.setattr(Circuit, "validate", counting("circuit", Circuit.validate))
    rc, out, err = run_cli(capsys, "synth", "--error", "E3", "--check")
    assert rc == 0 and "max |achieved - target| = " in err
    assert calls == {"symplectic_of": 0, "op": 0, "circuit": 0}
    circuit = parse(out)  # the counts see every op and Circuit that is built
    assert calls == {"symplectic_of": 0, "op": len(circuit), "circuit": 1} and len(circuit) > 0
    assert len(synth_columns) == 1 and type(synth_columns[0]) is _Columns
    assert out == _serialize_columns(synth_columns[0])


def _pin_column_path(out, columns, circuit):
    """The CLI's text and fold of the elimination's columns are the op-table path's, bit for bit."""
    assert out == serialize(circuit)
    parsed = parse(out)
    assert (parsed.labels, parsed.ops) == (circuit.labels, circuit.ops)
    folded = interpreter._fold_positions(columns)
    assert folded.tobytes() == interpreter._fold_positions(_columns(circuit)).tobytes()


def _synth_matrix(rng, kind, n):
    """A bench-like synth target and the savetxt format that writes it exactly."""
    if kind == "dense":
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return Q * rng.uniform(0.5, 2.0, n), "%.17g"

    def unit_triangle(k):
        E = rng.choice([-1, 0, 1], size=(n, n), p=[0.15, 0.7, 0.15])
        return (np.tril(E, k) if k < 0 else np.triu(E, k)) + np.eye(n, dtype=int)

    A = unit_triangle(-1) @ unit_triangle(1)
    return A[rng.permutation(n)] * rng.choice([-1, 1], size=n)[:, None], "%d"


@pytest.mark.parametrize("kind", ["dense", "unimodular"])
def test_synth_text_and_fold_from_columns_match_the_op_table_path(capsys, tmp_path, synth_columns, kind):
    for n in range(1, 41):
        A, fmt = _synth_matrix(np.random.default_rng(n), kind, n)
        path = tmp_path / f"{kind}{n}.txt"
        np.savetxt(path, A, fmt=fmt)
        rc, out, err = run_cli(capsys, "synth", "--matrix", str(path))
        assert (rc, err) == (0, "")
        _pin_column_path(out, synth_columns[-1], synthesize(np.loadtxt(path, ndmin=2)))


@pytest.mark.parametrize("tag", ["E2", "E3", "E4"])
def test_synth_error_text_and_fold_from_columns_match_the_op_table_path(capsys, synth_columns, tag):
    rc, out, err = run_cli(capsys, "synth", "--error", tag)
    assert (rc, err) == (0, "")
    circuit = synthesize(decoder_matrix(tag), SURVIVOR_MODES[tag], pivot_rows=REFERENCE_PIVOT_ROWS.get(tag))
    _pin_column_path(out, synth_columns[-1], circuit)


@pytest.mark.parametrize("A", [np.eye(1), np.eye(3), np.where(np.eye(2), 1.0, -0.0)], ids=["eye1", "eye3", "signed-zeros"])
def test_synth_of_an_identity_writes_and_folds_the_empty_circuit(capsys, tmp_path, synth_columns, A):
    path = tmp_path / "identity.txt"
    np.savetxt(path, A, fmt="%.17g")
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path))
    assert (rc, out, err) == (0, "MODES " + " ".join(map(str, range(1, len(A) + 1))) + "\n", "")
    _pin_column_path(out, synth_columns[-1], synthesize(A))


def test_column_text_and_fold_keep_a_negative_zero_gain():
    # A synthesized gain passes the elimination's nonzero test, so no matrix
    # makes one of 0; a circuit's own columns carry one through both paths.
    circuit = Circuit((1, 2, 3), (Qnd(1, 2, -0.0), SqueezeFactor(3, -2.0), Qnd(2, 3, 0.0), Swap(1, 3), Qnd(3, 1, -0.0)))
    columns = _columns(circuit)
    text = _serialize_columns(columns)
    assert text == serialize(circuit) and "gain=-0\n" in text and "gain=0\n" in text
    _pin_column_path(text, columns, circuit)
    assert _circuit(columns).ops == circuit.ops


#: values at the edges of _fmt's two conversions; whole numbers below 1e15 lose their .0
EDGE_VALUES = [
    (-0.0, "-0"),
    (1e15 - 1, "999999999999999"),
    (-(1e15 - 1), "-999999999999999"),
    (1e15, "1000000000000000.0"),
    (-1e15, "-1000000000000000.0"),
    (1e16, "1e+16"),
    (5e-324, "5e-324"),
    (-5e-324, "-5e-324"),
    (-7.0, "-7"),
    (-(2.0**49), "-562949953421312"),
    (2.0**52, "4503599627370496.0"),
    (0.5, "0.5"),
    (np.float64(-3.0), "-3"),
    (np.float64(0.1), "0.1"),
    (2, "2"),
]


@pytest.mark.parametrize("value, text", EDGE_VALUES, ids=[repr(v) for v, _ in EDGE_VALUES])
def test_column_text_writes_each_value_as_serialize_does(value, text):
    # every row a column holds, with the value in each field it can take:
    # a QND gain and a phase may be -0.0, a squeeze factor may not
    kinds = [OPS[cls] for cls in (Qnd, SqueezeFactor, Swap, BeamSplitterPM, PhaseShift, TwoModeSqueeze, Pi)]
    factor = 3.0 if value == 0 else value
    columns = _Columns(
        (2, 5, 7),
        kinds + [OPS[Fourier], OPS[InverseFourier], OPS[Discard]],
        [2, 7, 5, 2, 5, 7, 2, 5, 7, 2],
        [5, None, 7, 7, None, 2, None, None, None, None],
        [value, factor, None, None, value, value, None, None, None, None],
    )
    out = _serialize_columns(columns)
    assert out == serialize(_circuit(columns))
    assert f"QND c=2 t=5 gain={text}\n" in out and f"PHASE mode=5 phi={text}\n" in out
    if value != 0:
        assert f"SQ mode=7 factor={text}\n" in out


@pytest.mark.parametrize("labels", [(1,), (3, 1, 2)])
def test_column_text_of_the_empty_circuit_is_its_modes_line(labels):
    columns = _Columns(labels, [], [], [], [])
    assert _serialize_columns(columns) == serialize(_circuit(columns)) == "MODES " + " ".join(map(str, labels)) + "\n"


def test_synth_identity_matrix_gives_an_empty_circuit(capsys, tmp_path):
    path = tmp_path / "id3.txt"
    np.savetxt(path, np.eye(3))
    rc, out, _ = run_cli(capsys, "synth", "--matrix", str(path))
    assert rc == 0
    assert out == "MODES 1 2 3\n"


def test_synth_check_limit_scales_with_the_matrix(capsys, tmp_path):
    path = tmp_path / "large.txt"
    np.savetxt(path, 1e8 * np.array([[1.0, 2.0], [3.0, 1.0]]))
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path), "--check")
    assert rc == 0
    assert out.startswith("MODES 1 2\n")
    assert "max |achieved - target| = " in err


def test_synth_singular_matrix_fails_verification(capsys, tmp_path):
    path = tmp_path / "singular.txt"
    np.savetxt(path, np.array([[1.0, 2.0], [2.0, 4.0]]))
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path))
    assert rc == 1
    assert out == ""
    assert err == "error: matrix is singular: no pivot available in column 1\n"


@pytest.mark.parametrize(
    "rows, circuit",
    [
        # diag(1, 2**-60)
        (["1 0", "0 8.673617379884035e-19"], "MODES 1 2\nSQ mode=2 factor=8.673617379884035e-19\n"),
        # [[1, 2], [3, 4]] with row 2 scaled by 2**-55
        (
            ["1 2", "8.326672684688674e-17 1.1102230246251565e-16"],
            "MODES 1 2\nQND c=2 t=1 gain=2\nSQ mode=2 factor=-5.551115123125783e-17\n"
            "QND c=1 t=2 gain=8.326672684688674e-17\n",
        ),
    ],
    ids=["diag", "dense"],
)
def test_synth_invertible_matrix_with_rows_of_distant_scales(capsys, tmp_path, rows, circuit):
    path = tmp_path / "scaled.txt"
    path.write_text("\n".join(rows) + "\n")
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path), "--check")
    assert (rc, out) == (0, circuit)
    assert err == "max |achieved - target| = 0.000e+00\n"


@pytest.mark.parametrize("A, column", OVERFLOWING_MATRICES.values(), ids=OVERFLOWING_MATRICES)
def test_synth_overflow_is_one_synthesis_error_line(capsys, tmp_path, A, column):
    # these once ended in a ZeroDivisionError traceback, or in a usage error
    # (exit 2) naming a squeeze factor or QND gain the input never held
    path = tmp_path / "huge.txt"
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in A))
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path), "--check")
    assert (rc, out) == (1, "")
    assert err == f"error: the elimination leaves float range in column {column}\n"


def test_synth_file_errors_are_usage_errors(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "synth", "--matrix", str(tmp_path / "nope.txt"))
    assert rc == 2 and "cannot read" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nthree 4\n")
    rc, _, err = run_cli(capsys, "synth", "--matrix", str(bad))
    assert rc == 2 and "cannot parse" in err

    rect = tmp_path / "rect.txt"
    np.savetxt(rect, np.ones((2, 3)))
    rc, _, err = run_cli(capsys, "synth", "--matrix", str(rect))
    assert rc == 2 and "square" in err


def test_synth_reads_only_the_named_file(capsys, tmp_path):
    # a name is a plain path: no compressed variant stands in for it
    path = tmp_path / "m.txt"
    np.savetxt(tmp_path / "m.txt.gz", np.eye(2))
    rc, out, err = run_cli(capsys, "synth", "--matrix", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot read matrix file: [Errno 2] No such file or directory: {str(path)!r}\n"

    rc, out, err = run_cli(capsys, "synth", "--matrix", str(tmp_path))
    assert (rc, out) == (2, "") and err.startswith("error: cannot read matrix file: ")


_MATRIX_TEXTS = {
    "comments": "# a 2x2 matrix\n1 2 # first row\n#\n3 4\n",
    "blank lines": "\n1 2\n\n   \n3 4\n\n",
    "crlf": "1 2\r\n3 4\r\n",
    "tabs": "1\t2\n\t3 \t4\n",
    "one row": "1 2 3\n",
    "one value": "2.5\n",
    "%.17g": "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in np.random.default_rng(2).normal(size=(3, 3)) * 1e3
    ),
}


@pytest.mark.parametrize("text", _MATRIX_TEXTS.values(), ids=_MATRIX_TEXTS)
def test_synth_reads_a_matrix_file_as_loadtxt_reads_its_name(tmp_path, monkeypatch, text):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode())
    loadtxt, read = np.loadtxt, []

    def spy(*args, **kwargs):
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    main(["synth", "--matrix", str(path)])
    monkeypatch.undo()
    want = np.loadtxt(str(path), ndmin=2)
    assert len(read) == 1
    assert (read[0].dtype, read[0].shape, read[0].tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_synth_reports_a_comment_only_file_with_no_warning_under_w_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# nothing here\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cvrep.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvrep", "synth", f"--matrix={path}"],
        capture_output=True, text=True, env=env,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: matrix file holds no entries\n")


@pytest.mark.parametrize("text", ["", "\n  \n", "# comment only\n"], ids=["empty", "blank", "comment"])
def test_synth_empty_matrix_file_is_one_usage_error(capsys, tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "synth", "--matrix", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: matrix file holds no entries\n"


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_csv_shape_and_values(capsys):
    rc, out, err = run_cli(
        capsys, "fidelity", "--steps", "3", "--r-max", "1.0"
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # r = 0: F1 = 1, F2 = F3 = 1/3, F4 = 1/2
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(first[2]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(first[3]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert float(first[4]) == pytest.approx(0.5, abs=1e-9)
    # simulated columns track the formula columns
    for line in lines[1:]:
        cells = line.split(",")
        for sim, form in zip(cells[1:5], cells[5:9]):
            assert float(sim) == pytest.approx(float(form), abs=1e-8)
        assert float(cells[9]) <= 1e-8
    assert "max |simulated - formula|" in err


def test_fidelity_cells_use_twelve_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, "fidelity", "--steps", "2", "--r-max", "0.8")
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        for cell in line.split(","):
            assert cell == format(float(cell), ".12g")


def test_fidelity_subset_marks_missing_tags_nan(capsys):
    rc, out, _ = run_cli(
        capsys, "fidelity", "--steps", "1", "--errors", "E2,E4"
    )
    assert rc == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[1] == "nan" and cells[3] == "nan"
    assert cells[2] != "nan" and cells[4] != "nan"
    assert all(c != "nan" for c in cells[5:9])


def test_fidelity_flag_validation(capsys):
    rc, _, err = run_cli(capsys, "fidelity", "--errors", "E9")
    assert rc == 2 and "unknown erasure tag" in err
    rc, _, err = run_cli(capsys, "fidelity", "--steps", "0")
    assert rc == 2
    rc, _, err = run_cli(capsys, "fidelity", "--r-min", "2", "--r-max", "1")
    assert rc == 2
    rc, _, err = run_cli(capsys, "fidelity", "--alpha", "one")
    assert rc == 2 and "amplitude" in err


# The exact CSV of one sweep, seeded or not: no outcome of E4's homodyne
# moves its recovered state, so --seed moves no printed digit.
FROZEN_SWEEP_ARGS = (
    "fidelity", "--steps", "7", "--r-min", "0.2", "--r-max", "3", "--alpha=1-0.5i", "--errors", "E4,E2"
)
FROZEN_SWEEP_CSV = CSV_HEADER + """
0.2,nan,0.427233560336,nan,0.598687660112,1,0.427233560336,0.427233560336,0.598687660112,1.11022302463e-16
0.666666666667,nan,0.654795539483,nan,0.791391472674,1,0.654795539483,0.654795539483,0.791391472674,1.11022302463e-16
1.13333333333,nan,0.828284760175,nan,0.906078503981,1,0.828284760175,0.828284760175,0.906078503981,2.22044604925e-16
1.6,nan,0.924620833929,nan,0.960834277203,1,0.924620833929,0.924620833929,0.960834277203,2.22044604925e-16
2.06666666667,nan,0.968937119152,nan,0.984223528245,1,0.968937119152,0.968937119152,0.984223528245,2.22044604925e-16
2.53333333333,nan,0.987550159596,nan,0.993736087442,1,0.987550159596,0.987550159596,0.993736087442,1.11022302463e-16
3,nan,0.995066951257,nan,0.997527376843,1,0.995066951257,0.995066951257,0.997527376843,2.22044604925e-16
"""


def test_fidelity_csv_cells_are_format_twelve_g_at_the_edges():
    # nan, infinities, -0 and values at the ends of the float range write
    # as format(x, ".12g") does, cell by cell
    edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1 / 3, 1e16 + 2, 123456789012.5]
    rolled = np.array([edge[i:] + edge[:i] for i in range(8)]).T
    result = SimpleNamespace(
        r=np.array(edge), simulated=rolled[:, :4], formula=-rolled[:, 4:], row_max_abs_dev=np.array(edge[::-1])
    )
    table = np.column_stack([result.r, result.simulated, result.formula, result.row_max_abs_dev])
    want = [CSV_HEADER, *(",".join(format(cell, ".12g") for cell in row) for row in table.tolist())]
    assert cli._sweep_csv(result) == "\n".join(want) + "\n"


@pytest.mark.parametrize("seed", [(), ("--seed", "1")], ids=["unseeded", "seeded"])
def test_fidelity_csv_is_frozen(capsys, seed):
    rc, out, err = run_cli(capsys, *seed, *FROZEN_SWEEP_ARGS)
    assert (rc, out) == (0, FROZEN_SWEEP_CSV)
    assert err == "max |simulated - formula| = 2.220e-16\n"


@pytest.mark.parametrize(
    "errors, message",
    [
        ("E9", "unknown erasure tag 'E9'; valid: E1, E2, E3, E4"),
        ("E2,E2", "duplicate erasure tags in sweep"),
        (",", "sweep needs at least one erasure tag"),
    ],
)
def test_fidelity_reports_the_sweep_specs_tag_errors(capsys, errors, message):
    rc, out, err = run_cli(capsys, "fidelity", f"--errors={errors}")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fidelity_rejects_non_finite_bounds_as_usage_errors(capsys, flag, value):
    rc, out, err = run_cli(capsys, "fidelity", f"{flag}={value}", "--steps", "3")
    assert rc == 2 and out == ""
    assert "error:" in err and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("r", ["-1000", "-50", "-30", "-1e-9"])
def test_fidelity_rejects_negative_squeezing_as_a_usage_error(capsys, r):
    # r is a squeezing magnitude.  At -1000 the closed form's exp overflows,
    # and at -30 E1's simulation is 1.4e-8 off its closed form: neither may
    # end in a traceback or a failed check
    rc, out, err = run_cli(capsys, "fidelity", f"--r-min={r}", f"--r-max={r}", "--steps", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: r_min must be >= 0") and err.count("\n") == 1


def test_fidelity_writes_csv_and_gnuplot_files(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "sweep.gp"
    rc, out, err = run_cli(
        capsys,
        "fidelity", "--steps", "2", "--r-max", "1.0",
        "--out", str(csv_path), "--gnuplot", str(plot_path),
    )
    assert rc == 0
    assert out == ""  # CSV went to the file, not stdout
    text = csv_path.read_text()
    assert text.startswith(CSV_HEADER)
    assert len(text.strip().split("\n")) == 3
    script = plot_path.read_text()
    assert str(csv_path) in script and "plot for" in script
    assert "wrote 2 rows" in err


def test_fidelity_gnuplot_script_quotes_a_csv_path_holding_a_quote(capsys, tmp_path):
    # gnuplot writes a quote inside a single-quoted string twice
    csv_path, plot_path = tmp_path / "it's.csv", tmp_path / "sweep.gp"
    rc, _, _ = run_cli(capsys, "fidelity", "--steps", "2", "--out", str(csv_path), "--gnuplot", str(plot_path))
    assert rc == 0
    strings = [text.replace("''", "'") for text in re.findall(r"'((?:[^']|'')*)'", plot_path.read_text())]
    assert strings == [",", "squeezing r", "recovery fidelity", str(csv_path), str(csv_path)]


@pytest.mark.parametrize(
    "steps, message",
    [
        # more memory than the machine can map
        ("1000000000000000000", "--steps 1000000000000000000 is too large: Unable to allocate"),
        # more floats than one array holds
        ("99999999999999999999", "steps must be at most 1152921504606846975"),
        ("9223372036854775807", "steps must be at most 1152921504606846975"),
        # a size NumPy refuses just below that bound
        ("1152921504606846975", "--steps 1152921504606846975 is too large: "),
    ],
    ids=["unmappable", "past-intp", "intp-max", "refused-by-numpy"],
)
def test_fidelity_reports_a_grid_it_cannot_build_as_a_usage_error(capsys, steps, message):
    # NumPy refuses each of these sizes before allocating anything
    rc, out, err = run_cli(capsys, "fidelity", f"--steps={steps}")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["csv", "gnuplot"])
def test_fidelity_reports_an_unwritable_output_file_as_a_usage_error(capsys, tmp_path, target):
    # a path in a missing directory; the CSV's failure comes before any
    # output, the gnuplot script's after the CSV is written
    csv_path, plot_path = tmp_path / "sweep.csv", tmp_path / "sweep.gp"
    missing = tmp_path / "missing" / f"sweep.{target}"
    if target == "csv":
        csv_path = missing
    else:
        plot_path = missing
    rc, out, err = run_cli(
        capsys, "fidelity", "--steps", "2", "--out", str(csv_path), "--gnuplot", str(plot_path)
    )
    what = "CSV file" if target == "csv" else "gnuplot script"
    assert rc == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"error: cannot write {what}: ")
    assert str(missing) in err and not missing.parent.exists()


@pytest.mark.parametrize("joined", [True, False], ids=["--flag=", "--flag ''"])
@pytest.mark.parametrize("flag", ["out", "gnuplot"])
def test_fidelity_reports_an_empty_output_path_as_a_usage_error(capsys, tmp_path, flag, joined):
    # an empty path is a file that cannot be written, not an absent flag:
    # --out '' once wrote the CSV to stdout and --gnuplot '' wrote no script
    empty = [f"--{flag}="] if joined else [f"--{flag}", ""]
    csv = [] if flag == "out" else ["--out", str(tmp_path / "sweep.csv")]
    rc, out, err = run_cli(capsys, "fidelity", "--steps", "2", *csv, *empty)
    what = "CSV file" if flag == "out" else "gnuplot script"
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: cannot write {what}: ") and err.endswith("''\n")


@pytest.mark.parametrize(
    "spelling, exists",
    # a hard link needs its file to exist
    [(s, e) for s in ("same", "dot", "absolute", "parent dir", "symlink") for e in (False, True)] + [("hard link", True)],
    ids=lambda v: {False: "new", True: "existing"}.get(v, v),
)
def test_fidelity_refuses_one_file_for_the_csv_and_the_script(capsys, tmp_path, monkeypatch, spelling, exists):
    # the script once overwrote the CSV it plots, with exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if exists:
        Path("P").write_text("kept\n")
    if spelling == "symlink":
        os.symlink("P", "link")
    if spelling == "hard link":
        os.link("P", "link")
    script = {
        "same": "P", "dot": "./P", "absolute": str(tmp_path / "P"), "parent dir": "sub/../P", "symlink": "link",
        "hard link": "link",
    }[spelling]
    before = sorted((p.name, p.read_text() if p.is_file() else None) for p in tmp_path.iterdir())
    rc, out, err = run_cli(capsys, "fidelity", "--steps", "2", "--out", "P", "--gnuplot", script)
    assert (rc, out) == (2, "")
    assert err == "error: --out and --gnuplot name the same file (P): the script would overwrite its data\n"
    assert sorted((p.name, p.read_text() if p.is_file() else None) for p in tmp_path.iterdir()) == before


def test_fidelity_writes_a_csv_and_a_script_of_two_names(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli(capsys, "fidelity", "--steps", "2", "--out", "P", "--gnuplot", "./P.gp")
    assert rc == 0 and "wrote 2 rows to P" in err and "wrote gnuplot script to ./P.gp" in err
    assert Path("P").read_text().startswith(CSV_HEADER) and "'P' using 1:i" in Path("P.gp").read_text()


def test_fidelity_gnuplot_requires_out(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "fidelity", "--steps", "1", "--gnuplot", str(tmp_path / "x.gp")
    )
    assert rc == 2 and "--gnuplot needs --out" in err


def test_fidelity_seeded_runs_are_reproducible(capsys):
    args = ("--seed", "7", "fidelity", "--errors", "E4", "--steps", "2", "--r-max", "1.0")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_fidelity_seed_is_also_accepted_after_the_subcommand(capsys):
    args = ("fidelity", "--errors", "E4", "--steps", "2")
    rc1, out1, _ = run_cli(capsys, "--seed", "7", *args)
    rc2, out2, _ = run_cli(capsys, *args, "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_fidelity_fails_when_a_simulated_cell_is_nan(capsys, monkeypatch):
    honest = recovery._fidelities

    def e3_is_nan(rs, tags):
        cells = honest(rs, tags)
        cells[:, tags.index("E3")] = float("nan")
        return cells

    monkeypatch.setattr(recovery, "_fidelities", e3_is_nan)
    rc, out, err = run_cli(capsys, "fidelity", "--steps", "2", "--r-max", "1.0")
    assert rc == 1
    assert all(line.endswith(",nan") for line in out.strip().split("\n")[1:])
    assert "max |simulated - formula| = nan" in err


@pytest.mark.parametrize("r", ["30", "400", "1000"])
def test_seeded_fidelity_stays_within_the_gate_at_any_squeezing(capsys, r):
    # cosh(400) squared overflows a float: a seeded sweep reads the same
    # compiled channel, which forms no e^{r}-sized number, and no
    # RuntimeWarning may fire
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run_cli(capsys, "--seed=1", "fidelity", "--steps=1", f"--r-min={r}", f"--r-max={r}")
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[-1]) <= TOL.fidelity_gate
    assert float(err.rsplit("=", 1)[1]) <= TOL.fidelity_gate


@pytest.mark.parametrize("alpha", ["nan", "nani", "1-nani", "1e400"])
def test_fidelity_rejects_a_non_finite_amplitude_as_a_usage_error(capsys, alpha):
    rc, out, err = run_cli(capsys, "fidelity", f"--alpha={alpha}", "--steps", "1")
    assert rc == 2 and out == ""
    assert err == "error: displacement amplitude must be finite\n"


@pytest.mark.parametrize("alpha", ["1e12", "1e100", "-1e100i", "1e150+1e150i"])
def test_fidelity_does_not_depend_on_the_size_of_the_amplitude(capsys, alpha):
    # a mean gain of 0.9999999999999998 once made 1e12 exit 1 (E1 and E2
    # off by 2.98e-8) and 1e100 print F1 = F2 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "fidelity", f"--alpha={alpha}", "--steps=5")
    assert rc == 0
    assert out == run_cli(capsys, "fidelity", "--steps=5")[1]
    assert float(err.rsplit("=", 1)[1]) <= TOL.fidelity_gate


@pytest.mark.parametrize(
    "alpha, shown", [("1e308", "(1e+308+0j)"), ("-1e200i", "-1e+200j"), ("1e154+1e154i", "(1e+154+1e+154j)")]
)
def test_fidelity_rejects_an_amplitude_whose_photon_number_overflows(capsys, alpha, shown):
    rc, out, err = run_cli(capsys, "fidelity", f"--alpha={alpha}", "--steps", "1")
    assert rc == 2 and out == ""
    assert err == f"error: displacement amplitude {shown} is too large: |alpha|^2 overflows\n"


@pytest.mark.parametrize("alpha", ["inf", "-inf", "1+infi", "infi"])
def test_fidelity_reports_an_infinite_amplitude_as_non_finite(capsys, alpha):
    # the i of inf is not the imaginary unit: inf reaches the finiteness check
    rc, out, err = run_cli(capsys, "fidelity", f"--alpha={alpha}", "--steps", "1")
    assert rc == 2 and out == ""
    assert err == "error: displacement amplitude must be finite\n"


@pytest.mark.parametrize(
    "text, value",
    [("2i", 2j), ("1+1i", 1 + 1j), ("-0.3+1i", -0.3 + 1j), (" 0.5 - 2i ", 0.5 - 2j), ("1", 1 + 0j), ("i", 1j)],
)
def test_amplitudes_parse_with_a_trailing_i(text, value):
    assert cli._parse_alpha(text) == value


def test_python_m_cvrep_runs_the_cli():
    src = str(Path(cvrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "cvrep", "fidelity", "--steps", "2", "--errors", "E4", "--seed", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == CSV_HEADER


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_two_thirds_is_ln_two(capsys):
    rc, out, err = run_cli(capsys, "threshold", "--target", str(2.0 / 3.0))
    assert rc == 0
    value = float(out.strip())
    assert value == pytest.approx(LN2, abs=1e-5)
    assert out.strip() == format(value, ".12g")
    assert "worst-case recovery fidelity" in err


def test_threshold_one_half_is_half_ln_two(capsys):
    rc, out, _ = run_cli(capsys, "threshold", "--target", "0.5")
    assert rc == 0
    assert float(out.strip()) == pytest.approx(0.5 * LN2, abs=1e-5)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_threshold_rejects_a_non_finite_tol(capsys, tol):
    rc, out, err = run_cli(capsys, "threshold", "--target=0.5", f"--tol={tol}")
    assert rc == 2 and out == ""
    assert "tol" in err


def test_threshold_unreachable_targets_exit_three(capsys):
    rc, _, err = run_cli(capsys, "threshold", "--target", "1")
    assert rc == 3 and "unreachable" in err
    rc, _, err = run_cli(capsys, "threshold", "--target", "1.5")
    assert rc == 3


def test_threshold_flag_validation(capsys):
    rc, _, err = run_cli(capsys, "threshold", "--target", "0")
    assert rc == 2 and "must be positive" in err
    rc, _, err = run_cli(capsys, "threshold", "--target", "-0.5")
    assert rc == 2
    rc, _, err = run_cli(capsys, "threshold", "--target", "nan")
    assert rc == 2
    rc, _, err = run_cli(capsys, "threshold", "--target", "0.9", "--tol", "0")
    assert rc == 2


# ---------------------------------------------------------------------------
# spacetime
# ---------------------------------------------------------------------------


def test_spacetime_fig4_selects_the_five_mode_code(capsys):
    rc, out, err = run_cli(capsys, "spacetime", "--config", "fig4")
    assert rc == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["n_diamonds"] == 4
    assert report["chain"] == [2, 1, 3]
    assert report["code"] == "five_mode"
    assert len(report["graph"]) == 6
    assert "feasible" in err


def test_spacetime_fig2c_names_the_unrelated_pair(capsys):
    rc, out, err = run_cli(capsys, "spacetime", "--config", "fig2c")
    assert rc == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"] == [{"kind": "unrelated-pair", "diamonds": [2, 3]}]
    assert report["code"] is None
    assert "diamonds 2 and 3 are causally unrelated" in err
    assert "INFEASIBLE" in err


def test_spacetime_small_valid_configs_have_no_code(capsys):
    for name in ("fig2a", "fig2b"):
        rc, out, _ = run_cli(capsys, "spacetime", "--config", name)
        assert rc == 0
        report = json.loads(out)
        assert report["valid"] is True and report["code"] is None


def test_spacetime_reads_a_json_file(capsys, tmp_path):
    config = {
        "dim": 2,
        "start": [-1.0, 0.0, 0.0],
        "diamonds": [
            {"y": [0.0, 1.0, 0.0], "z": [1.5, 0.5, 0.5]},
            {"y": [0.0, 0.0, 1.0], "z": [3.0, 0.0, -0.5]},
            {"y": [0.0, -1.0, 0.0], "z": [3.0, 0.5, 1.0]},
            {"y": [0.0, 0.0, -1.0], "z": [3.0, -0.5, -0.5]},
        ],
    }
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(config))
    rc, out, _ = run_cli(capsys, "spacetime", "--config", str(path))
    assert rc == 0
    assert json.loads(out)["code"] == "five_mode"


def test_spacetime_file_errors_are_usage_errors(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "spacetime", "--config", str(tmp_path / "none.json"))
    assert rc == 2 and "cannot read configuration" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = run_cli(capsys, "spacetime", "--config", str(broken))
    assert rc == 2 and "bad configuration" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"dim": 1, "diamonds": []}))
    rc, _, err = run_cli(capsys, "spacetime", "--config", str(incomplete))
    assert rc == 2 and "missing key 'start'" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ([1], "the configuration must be an object, got list"),
        ({"dim": 1, "start": [0.0, 0.0], "diamonds": 2}, "diamonds must be a list, got int"),
        (
            {"dim": 1, "start": [0.0, 0.0], "diamonds": [{"y": [0.0, 0.0], "z": [1.0, 0.0]}, "fig4"]},
            "diamond 2 must be an object, got str",
        ),
        (
            {"dim": 1, "start": [0, "1"], "diamonds": [{"y": [0, 0], "z": [1, 0]}] * 2},
            "start coordinate 1 must be a number, got str",
        ),
        (
            {"dim": 1, "start": [0, True], "diamonds": [{"y": [0, 0], "z": [1, 0]}] * 2},
            "start coordinate 1 must be a number, got bool",
        ),
        (
            {"dim": 1, "start": [0, [1]], "diamonds": [{"y": [0, 0], "z": [1, 0]}] * 2},
            "start coordinate 1 must be a number, got list",
        ),
        (
            {"dim": 1, "start": [0, 10**400], "diamonds": [{"y": [0, 0], "z": [1, 0]}] * 2},
            "start coordinate 1 is an integer too large for a float",
        ),
    ],
    ids=["top level", "diamonds", "diamond 2", "str coordinate", "bool coordinate", "list coordinate",
         "huge coordinate"],
)
def test_spacetime_names_the_part_of_a_config_of_the_wrong_type(capsys, tmp_path, config, message):
    # at the parent these printed Python's own TypeError text, e.g. "list
    # indices must be integers or slices, not str"; "1" and true were read
    # as 1.0, and a 401-digit integer ended in an OverflowError traceback
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc, out, err = run_cli(capsys, "spacetime", "--config", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: bad configuration: {message}\n"


def twelve_unrelated_diamonds(path):
    """A generated configuration of 12 diamonds, infeasible: some pairs cannot signal either way."""
    rng = np.random.default_rng(12)
    diamonds = []
    for t, x1, x2 in zip(rng.uniform(0, 4, 12), rng.uniform(-3, 3, 12), rng.uniform(-3, 3, 12)):
        diamonds.append({"y": [t, x1, x2], "z": [t + 1.0, x1, x2]})
    path.write_text(json.dumps({"dim": 2, "start": [-10.0, 0.0, 0.0], "diamonds": diamonds}))
    return str(path)


@pytest.mark.parametrize("which", ["fig4", "twelve"])
def test_spacetime_evaluates_each_causal_relation_once(capsys, monkeypatch, tmp_path, which):
    # validate and find_chain run twice (directly, and inside select_code),
    # and causal_graph reads the pairs validate read: all from one table
    config = "fig4" if which == "fig4" else twelve_unrelated_diamonds(tmp_path / "twelve.json")
    pairs = []
    honest = replication.causal_leq

    def spy(a, b):
        pairs.append((a, b))
        return honest(a, b)

    monkeypatch.setattr(replication, "causal_leq", spy)
    rc, out, _ = run_cli(capsys, "spacetime", "--config", config)
    assert rc == (0 if which == "fig4" else 1)
    assert json.loads(out)["valid"] is (which == "fig4")
    evaluated = [(id(a), id(b)) for a, b in pairs]
    assert len(set(evaluated)) == len(evaluated) > 0


@pytest.mark.parametrize("dim", [-1, 0, 1.7, True, "1"])
def test_spacetime_rejects_a_malformed_dim_as_a_usage_error(capsys, tmp_path, dim):
    points = {"y": [0.0] * 2, "z": [1.0] * 2} if dim in (1.7, True, "1") else {"y": [], "z": []}
    start = [0.0] * len(points["y"])
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"dim": dim, "start": start, "diamonds": [points, points]}))
    rc, out, err = run_cli(capsys, "spacetime", "--config", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: bad configuration: dim must be an integer >= 1, got {dim!r}\n"


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------


SEQUENTIAL_CALLS = (
    ("--seed=1", "fidelity", "--steps=3", "--errors=E4,E2"),
    ("fidelity", "--steps=3", "--errors=E4,E2"),
    ("fidelity", "--seed=5", "--steps=2", "--alpha=1i"),
    ("fidelity", "--steps=2"),
    ("synth", "--error=E3", "--check"),
    ("synth", "--error=E2"),
    ("threshold", "--target=0.5"),
    ("verify", "five", "--erase=1,2"),
    ("verify", "five"),
)


def test_main_reuses_one_parser_and_nothing_leaks_between_calls(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    reused = [vars(cli._parser().parse_args(list(argv))) for argv in SEQUENTIAL_CALLS]
    fresh = [vars(cli.build_parser().parse_args(list(argv))) for argv in SEQUENTIAL_CALLS]
    # the reader takes every one of these, from the cached parser and from new ones
    assert reused == fresh == [cli._read(cli._parser(), list(argv)) for argv in SEQUENTIAL_CALLS]
    assert reused == [cli._read(cli.build_parser(), list(argv)) for argv in SEQUENTIAL_CALLS]
    outputs = [run_cli(capsys, *argv) for argv in SEQUENTIAL_CALLS]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert outputs == [run_cli(capsys, *argv) for argv in SEQUENTIAL_CALLS]
    monkeypatch.setattr(cli, "_read", lambda parser, argv: None)  # argparse reads every argv
    assert outputs == [run_cli(capsys, *argv) for argv in SEQUENTIAL_CALLS]


def _same_values(read, parsed) -> bool:
    """Whether two parsed value dicts agree value by value and type by type, nan equal to nan."""

    def same(a, b):
        return type(a) is type(b) and (a == b or (a != a and b != b))

    return read.keys() == parsed.keys() and all(same(read[key], parsed[key]) for key in read)


def _parse_args(parser, argv):
    """``vars(parser.parse_args(argv))``, or the exit code argparse stops with (its output dropped)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) of each parser in the tree that has no subcommands."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for name, sub in subs[0].choices.items() for leaf in _leaf_parsers(sub, (*path, name))]


PARSER = cli.build_parser()
LEAVES = _leaf_parsers(PARSER)
ACTIONS = {s: a for p in (PARSER, *(leaf for _, leaf in LEAVES)) for s, a in p._option_string_actions.items()}
# abbreviations, help, and tokens no parser knows
NOISE = sorted({s[:4] for s in ACTIONS if len(s) > 4} | {"-h", "--help", "--", "-x", "-", "---"})
WORDS = ("", "five", "6", "24", "x.txt", "E9", "E4,E2", "1,2", "fig4", "1i", "-0.3+1i", "nan", "-1", "build", "fidelity")


def _text_for(action):
    """A value's text for ``action``: mostly one of its choices or of its type, else any word."""
    if action.choices:
        fitting = st.sampled_from(sorted(action.choices))
    elif action.type in (int, float):
        fitting = st.integers(-3, 30).map(str) if action.type is int else st.floats().map(repr)
    else:
        fitting = st.sampled_from(WORDS)
    return st.one_of(fitting, fitting, st.sampled_from(WORDS))


@st.composite
def cli_argvs(draw):
    """An argv of the CLI's own tokens: global options, a subcommand path, then its items.

    An item is an option of the subcommand, given mostly as ``--opt=value``
    or ``--opt value`` (a flag bare), or a positional.  About one part in
    eight is wrong: a flag given a value or an option none, a token of
    ``NOISE``, another subcommand's option, or a path cut short or too long.
    """
    path, leaf = draw(st.sampled_from(LEAVES))

    def wrong() -> bool:
        # hypothesis leans to the first of the choices; that is the right part
        return draw(st.sampled_from((False,) * 7 + (True,)))

    def item(options):
        if not options or wrong():
            return [draw(st.sampled_from(NOISE + sorted(ACTIONS) + list(WORDS)))]
        option = draw(st.sampled_from(options))
        action = ACTIONS[option]
        if (action.nargs == 0) != wrong():
            return [option]
        value = draw(_text_for(action))
        return draw(st.sampled_from(([f"{option}={value}"], [option, value])))

    own = sorted(s for s, a in leaf._option_string_actions.items() if not isinstance(a, argparse._HelpAction))
    options = draw(st.lists(st.sampled_from(own), unique=True, max_size=5)) if own else []
    if options and wrong():
        options.append(options[0])  # a repeat
    items = [item([option]) for option in options] + [item(own) for _ in range(wrong())]
    items += [[draw(st.sampled_from(WORDS))] for a in leaf._actions if not a.option_strings and not wrong()]
    if wrong():
        path = draw(st.sampled_from([path[:-1], (*path, "bogus"), ("bogus",)]))
    argv = [token for part in [item(["--seed"]) for _ in range(draw(st.integers(0, 2)))] for token in part]
    return argv + list(path) + [token for part in draw(st.permutations(items)) for token in part]


@settings(max_examples=500, deadline=None)
@given(argv=cli_argvs())
# each kind of argv the reader must leave to argparse, and the seed twice
@example(argv=["synth", "--error=E2", "--check=1"])
@example(argv=["verify", "five", "--homology", "--homology"])
@example(argv=["fidelity", "--steps=3", "--ste=4"])
@example(argv=["fidelity", "--", "--steps=3"])
@example(argv=["-h", "fidelity"])
@example(argv=["threshold", "--target", "-0.5"])
@example(argv=["threshold", "--target=half"])
@example(argv=["synth", "--error=E9"])
@example(argv=["synth", "--check"])
@example(argv=["synth", "--error=E2", "--matrix=x.txt"])
@example(argv=["code", "build", "five", "six"])
@example(argv=["--seed=1", "fidelity", "--seed", "2"])
def test_every_argv_the_reader_takes_is_argparse_s_namespace(argv):
    parser = cli.build_parser()
    read = cli._read(parser, argv)
    if read is not None:
        parsed = _parse_args(parser, argv)
        assert isinstance(parsed, dict), f"argparse rejects {argv}, exit {parsed}"
        assert _same_values(read, parsed)


# for each subcommand, argvs in every exact spelling the reader takes
READABLE = {
    ("code", "build"): (["code", "build", "five"], ["--seed", "2", "code", "build", "6"]),
    ("verify",): (["verify", "--homology", "6"], ["verify", "five", "--erase", "1,2"]),
    ("synth",): (["synth", "--matrix", "x.txt", "--check"], ["--seed=1", "synth", "--error=E2"]),
    ("fidelity",): (["fidelity"], ["fidelity", "--steps", "3", "--r-max=nan", "--seed=4", "--out", ""]),
    ("threshold",): (["threshold", "--target=0.5"], ["threshold", "--tol", "1e-6", "--target", "1"]),
    ("spacetime",): (["spacetime", "--config", "fig4"], ["spacetime", "--config="]),
}


@pytest.mark.parametrize("path", [path for path, _ in LEAVES], ids=" ".join)
def test_the_reader_takes_an_argv_of_every_subcommand(path):
    for argv in READABLE[path]:
        parser = cli.build_parser()
        read = cli._read(parser, argv)
        assert read is not None and _same_values(read, _parse_args(parser, argv)), argv


@pytest.mark.parametrize("workload", ["sim", "codes", "synth"])
def test_the_reader_takes_every_benchmark_command(monkeypatch, tmp_path, workload):
    # the benchmark's commands are the CLI's hot path: argparse reading one
    # of them costs several times what the reader does
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    parser = cli._parser()
    for seed in (1, 7):
        for cmd in workloads.build(workload, seed, tmp_path / str(seed)):
            read = cli._read(parser, list(cmd.argv))
            assert read is not None, cmd.text()
            assert _same_values(read, _parse_args(parser, list(cmd.argv))), cmd.text()


@pytest.mark.parametrize("argv", [["--help"], ["fidelity", "--help"]])
def test_help_goes_to_argparse(capsys, argv):
    assert cli._read(cli._parser(), argv) is None
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 0
    out = capsys.readouterr().out
    with pytest.raises(SystemExit) as raised:
        cli.build_parser().parse_args(argv)
    assert raised.value.code == 0 and capsys.readouterr().out == out and out.startswith("usage: cvrep")


def test_an_abbreviated_option_goes_to_argparse(capsys):
    abbreviated = ["fidelity", "--st=3", "--r-ma=1"]
    assert cli._read(cli._parser(), abbreviated) is None
    rc, out, err = run_cli(capsys, *abbreviated)
    assert (rc, out, err) == run_cli(capsys, "fidelity", "--steps=3", "--r-max=1")
    assert out.startswith(CSV_HEADER) and out.count("\n") == 4


def test_an_option_missing_its_value_exits_with_argparse_s_usage(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["threshold", "--target"])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["threshold", "--target"])
    assert captured.out == "" and captured.err == capsys.readouterr().err
    assert captured.err.startswith("usage: cvrep threshold") and "expected one argument" in captured.err


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_synth_requires_exactly_one_target():
    with pytest.raises(SystemExit) as excinfo:
        main(["synth"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--error", "E2", "--matrix", "x.txt"])
    assert excinfo.value.code == 2
