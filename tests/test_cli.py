"""End-to-end command-line checks: output shapes, exit codes, file I/O."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvrep
from cvrep import cli
from cvrep.circuits import interpreter, recovery, synthesis
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


def test_synth_check_folds_the_circuit_once(capsys, monkeypatch):
    calls = {"positions": 0, "symplectic_of": 0}

    def counting(name, fn):
        def wrapper(circuit):
            calls[name] += 1
            return fn(circuit)

        return wrapper

    monkeypatch.setattr(synthesis, "_fold_positions", counting("positions", synthesis._fold_positions))
    for module in (interpreter, synthesis, cvrep.circuits):
        monkeypatch.setattr(module, "symplectic_of", counting("symplectic_of", interpreter.symplectic_of))
    rc, out, err = run_cli(capsys, "synth", "--error", "E3", "--check")
    assert rc == 0 and "max |achieved - target| = " in err
    assert calls == {"positions": 1, "symplectic_of": 0}


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


# The exact CSV of one sweep, seeded or not: sampling E4's homodyne moves
# no printed digit.
FROZEN_SWEEP_ARGS = (
    "fidelity", "--steps", "7", "--r-min", "0.2", "--r-max", "3", "--alpha=1-0.5i", "--errors", "E4,E2"
)
FROZEN_SWEEP_CSV = CSV_HEADER + """
0.2,nan,0.427233560336,nan,0.598687660112,1,0.427233560336,0.427233560336,0.598687660112,2.77555756156e-16
0.666666666667,nan,0.654795539483,nan,0.791391472674,1,0.654795539483,0.654795539483,0.791391472674,1.11022302463e-16
1.13333333333,nan,0.828284760175,nan,0.906078503981,1,0.828284760175,0.828284760175,0.906078503981,2.22044604925e-16
1.6,nan,0.924620833929,nan,0.960834277203,1,0.924620833929,0.924620833929,0.960834277203,3.33066907388e-16
2.06666666667,nan,0.968937119152,nan,0.984223528245,1,0.968937119152,0.968937119152,0.984223528245,2.22044604925e-16
2.53333333333,nan,0.987550159596,nan,0.993736087442,1,0.987550159596,0.987550159596,0.993736087442,1.11022302463e-16
3,nan,0.995066951257,nan,0.997527376843,1,0.995066951257,0.995066951257,0.997527376843,2.22044604925e-16
"""


@pytest.mark.parametrize("seed", [(), ("--seed", "1")], ids=["unseeded", "seeded"])
def test_fidelity_csv_is_frozen(capsys, seed):
    rc, out, err = run_cli(capsys, *seed, *FROZEN_SWEEP_ARGS)
    assert (rc, out) == (0, FROZEN_SWEEP_CSV)
    assert err == "max |simulated - formula| = 3.331e-16\n"


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

    def e3_is_nan(rs, tags, alpha, rng=None):
        cells = honest(rs, tags, alpha, rng)
        cells[:, tags.index("E3")] = float("nan")
        return cells

    monkeypatch.setattr(recovery, "_fidelities", e3_is_nan)
    rc, out, err = run_cli(capsys, "fidelity", "--steps", "2", "--r-max", "1.0")
    assert rc == 1
    assert all(line.endswith(",nan") for line in out.strip().split("\n")[1:])
    assert "max |simulated - formula| = nan" in err


@pytest.mark.parametrize("r", ["30", "400", "1000"])
def test_seeded_fidelity_stays_within_the_gate_at_any_squeezing(capsys, r):
    # cosh(400) squared overflows a float: the sampled E4 cell must be
    # conditioned without forming it, and no RuntimeWarning may fire
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
    ],
    ids=["top level", "diamonds", "diamond 2"],
)
def test_spacetime_names_the_part_of_a_config_of_the_wrong_type(capsys, tmp_path, config, message):
    # at the parent these printed Python's own TypeError text, e.g. "list
    # indices must be integers or slices, not str"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc, out, err = run_cli(capsys, "spacetime", "--config", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: bad configuration: {message}\n"


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
    reused = [cli._parser().parse_args(list(argv)) for argv in SEQUENTIAL_CALLS]
    fresh = [cli.build_parser().parse_args(list(argv)) for argv in SEQUENTIAL_CALLS]
    assert [vars(a) for a in reused] == [vars(a) for a in fresh]
    outputs = [run_cli(capsys, *argv) for argv in SEQUENTIAL_CALLS]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert outputs == [run_cli(capsys, *argv) for argv in SEQUENTIAL_CALLS]


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
