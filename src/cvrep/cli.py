"""Command-line front end.

Machine-readable results (JSON reports, circuit text, CSV sweeps, threshold
values) go to stdout; human-oriented progress and summaries go to stderr, so
pipelines can consume the output directly.

Exit codes:
    0   success — and for check-style commands, every check passed
    1   a verification failed (uncorrectable pattern, fidelity deviation
        over the gate, infeasible configuration, singular synthesis
        target, failed --check)
    2   usage or input error (bad arguments, unreadable files, bad values)
    3   requested target is unreachable (threshold of 1 or more)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import codes, homology, replication
from .circuits import (
    ERASURE_TAGS,
    REFERENCE_PIVOT_ROWS,
    SURVIVOR_MODES,
    SweepSpec,
    SynthesisError,
    UnreachableTargetError,
    decoder_matrix,
    fidelity_sweep,
    serialize,
    threshold_squeezing,
)
from .circuits.synthesis import _synthesize
from .tolerances import TOL

_SYNTH_TAGS = ("E2", "E3", "E4")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _code_for(which: str):
    """Resolve a code name argument: 'five', 'six', or an integer N >= 4."""
    if which == "five":
        return codes.build_five_mode_code()
    if which == "six":
        return codes.build_general_code(4)
    try:
        n = int(which)
    except ValueError:
        raise ValueError(f"expected 'five', 'six', or an integer N >= 4, got {which!r}") from None
    return codes.build_general_code(n)


def cmd_code(args) -> int:
    try:
        code = _code_for(args.which)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(f"code: {code.name}")
    print(f"modes: {code.n_modes}")
    print(f"generators: {code.x_rows.shape[0]} X + {code.p_rows.shape[0]} P")
    print(codes.format_generator_matrix(code))
    # the constructor has already rejected generators that do not commute
    print(f"commutation: max |v.w| = {code.orthogonality_defect():.3e} (ok)")
    return 0


def _parse_mode_list(text: str, n_modes: int) -> frozenset[int]:
    try:
        modes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--erase expects comma-separated mode numbers, got {text!r}") from None
    if not modes:
        raise ValueError("--erase got an empty mode list")
    bad = [m for m in modes if not 1 <= m <= n_modes]
    if bad:
        raise ValueError(f"--erase modes out of range 1..{n_modes}: {bad}")
    return frozenset(m - 1 for m in modes)


def cmd_verify(args) -> int:
    try:
        code = _code_for(args.which)
    except ValueError as exc:
        return _fail_usage(str(exc))
    is_five = code.name == "five_mode"
    basis = None if is_five else codes.edge_basis(int(args.which) if args.which != "six" else 4)

    if args.homology and is_five:
        return _fail_usage("--homology applies to the general construction, not the five-mode code")

    patterns = []
    if args.erase is not None:
        try:
            erased = _parse_mode_list(args.erase, code.n_modes)
        except ValueError as exc:
            return _fail_usage(str(exc))
        patterns.append(codes.ErasurePattern(erased))
    else:
        n_vertices = 4 if is_five else basis.N
        for vertex in range(1, n_vertices + 1):
            patterns.append(codes.erasure_for_vertex(code, basis, vertex))

    pattern_reports = []
    all_ok = True
    for pattern in patterns:
        correctable = codes.check_correctable(code, pattern)
        all_ok &= correctable
        erased_1based = sorted(m + 1 for m in pattern.erased)
        pattern_reports.append(
            {
                "erased": erased_1based,
                "vertex": pattern.recovery_vertex,
                "correctable": correctable,
            }
        )
        verdict = "correctable" if correctable else "NOT correctable"
        print(f"erasure {erased_1based}: {verdict}", file=sys.stderr)

    homology_report = None
    if args.homology:
        n = basis.N
        # chain_complex raises if any boundary square is nonzero; only the
        # shapes are kept, so its dense boundaries are freed before the code is built
        shapes = {k: list(M.shape) for k, M in sorted(homology.chain_complex(n).boundary.items())}
        hom_code = homology.build_homological_code(n)
        x_match = homology.rowspaces_equal(hom_code.x_rows, code.x_rows)
        p_match = homology.rowspaces_equal(hom_code.p_rows, code.p_rows)
        homology_report = {
            "boundary_squares_to_zero": True,
            "x_rowspace_matches": bool(x_match),
            "p_rowspace_matches": bool(p_match),
            "boundary_shapes": shapes,
        }
        all_ok &= x_match and p_match
        print(
            f"homological construction: X rows {'match' if x_match else 'DIFFER'}, "
            f"P rows {'match' if p_match else 'DIFFER'}",
            file=sys.stderr,
        )

    report = {
        "code": code.name,
        "n_modes": code.n_modes,
        "patterns": pattern_reports,
        "homology": homology_report,
        "ok": bool(all_ok),
    }
    print(json.dumps(report, indent=2))
    return 0 if all_ok else 1


def cmd_synth(args) -> int:
    pivot_rows = None
    if args.error is not None:
        A = decoder_matrix(args.error)
        labels = SURVIVOR_MODES[args.error]
        pivot_rows = REFERENCE_PIVOT_ROWS.get(args.error)
    else:
        try:
            with warnings.catch_warnings():
                # a file without entries is reported below, not as a NumPy warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                A = np.loadtxt(args.matrix, ndmin=2)
        except OSError as exc:
            return _fail_usage(f"cannot read matrix file: {exc}")
        except ValueError as exc:
            return _fail_usage(f"cannot parse matrix file: {exc}")
        if A.size == 0:
            return _fail_usage("matrix file holds no entries")
        if A.shape[0] != A.shape[1]:
            return _fail_usage(f"matrix file must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            return _fail_usage("matrix file contains non-finite entries")
        labels = None
    try:
        circuit, error = _synthesize(A, labels, pivot_rows=pivot_rows)
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail_usage(str(exc))
    sys.stdout.write(serialize(circuit))
    if args.check:
        # the deviation synthesis measured to certify the circuit
        print(f"max |achieved - target| = {error:.3e}", file=sys.stderr)
    return 0


def _parse_alpha(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse amplitude {text!r}; examples: 0, 1, 2i, 1+1i") from None


def _parse_errors(text: str) -> tuple[str, ...]:
    tags = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for tag in tags:
        if tag not in ERASURE_TAGS:
            raise ValueError(f"unknown erasure tag {tag!r}; valid: {', '.join(ERASURE_TAGS)}")
    if not tags:
        raise ValueError("--errors got an empty list")
    return tags


_CSV_HEADER = "r,F1,F2,F3,F4,formula_F1,formula_F2,formula_F3,formula_F4,max_abs_dev"


def _sweep_csv(result) -> str:
    lines = [_CSV_HEADER]
    for row in result.rows:
        cells = [format(row.r, ".12g")]
        cells += [format(row.simulated[tag], ".12g") for tag in ERASURE_TAGS]
        cells += [format(row.formula[tag], ".12g") for tag in ERASURE_TAGS]
        cells.append(format(row.max_abs_dev, ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_GNUPLOT_TEMPLATE = """\
set datafile separator ','
set key autotitle columnhead outside
set xlabel 'squeezing r'
set ylabel 'recovery fidelity'
set yrange [0:1.05]
plot for [i=2:5] '{csv}' using 1:i with points pt 7, \\
     for [i=6:9] '{csv}' using 1:i with lines dashtype 2
"""


def cmd_fidelity(args) -> int:
    try:
        spec = SweepSpec(
            r_min=args.r_min,
            r_max=args.r_max,
            steps=args.steps,
            errors=_parse_errors(args.errors),
            alpha=_parse_alpha(args.alpha),
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.gnuplot and not args.out:
        return _fail_usage("--gnuplot needs --out so the script has a data file to plot")

    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    result = fidelity_sweep(spec, rng=rng)
    csv_text = _sweep_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        print(f"wrote {len(result.rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    if args.gnuplot:
        with open(args.gnuplot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_GNUPLOT_TEMPLATE.format(csv=args.out))
        print(f"wrote gnuplot script to {args.gnuplot}", file=sys.stderr)
    print(f"max |simulated - formula| = {result.max_abs_dev:.3e}", file=sys.stderr)
    return 0 if result.max_abs_dev <= TOL.fidelity_gate else 1


def cmd_threshold(args) -> int:
    if args.target <= 0.0:
        return _fail_usage(f"--target must be positive, got {args.target}")
    try:
        r = threshold_squeezing(args.target, tol=args.tol)
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(format(r, ".12g"))
    print(
        f"worst-case recovery fidelity reaches {args.target} at squeezing r = {r:.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_spacetime(args) -> int:
    name = args.config
    try:
        if name in replication.BUILTIN_CONFIGURATIONS:
            config = replication.builtin_configuration(name)
        else:
            config = replication.load_configuration(name)
    except OSError as exc:
        return _fail_usage(f"cannot read configuration: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        return _fail_usage(f"bad configuration: {exc}")

    report = replication.validate(config)
    chain = replication.find_chain(config)
    code_name = None
    if report.valid and config.n_diamonds >= 4:
        code_name = replication.select_code(config).name
    out = {
        "n_diamonds": config.n_diamonds,
        "dim": config.dim,
        "valid": report.valid,
        "violations": [v.as_json() for v in report.violations],
        "graph": [list(edge) for edge in replication.causal_graph(config)],
        "chain": list(chain) if chain else None,
        "code": code_name,
    }
    print(json.dumps(out, indent=2))
    for v in report.violations:
        print(f"violation: {v}", file=sys.stderr)
    print(
        f"configuration is {'feasible' if report.valid else 'INFEASIBLE'}",
        file=sys.stderr,
    )
    return 0 if report.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrep",
        description="Replication codes for continuous-variable modes: build, "
        "verify, synthesize, simulate.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for any sampled homodynes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="construct codes")
    code_sub = p_code.add_subparsers(dest="action", required=True)
    p_build = code_sub.add_parser("build", help="print a code's generators")
    p_build.add_argument("which", help="'five', 'six', or a region count N >= 4")
    p_build.set_defaults(func=cmd_code)

    p_verify = sub.add_parser("verify", help="check erasure correctability")
    p_verify.add_argument("which", help="'five' or a region count N >= 4")
    p_verify.add_argument("--homology", action="store_true", help="also check the chain-complex construction")
    p_verify.add_argument("--erase", default=None, help="comma-separated 1-based modes to erase")
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="synthesize a circuit for a position-basis matrix")
    target = p_synth.add_mutually_exclusive_group(required=True)
    target.add_argument("--matrix", help="text file with one matrix row per line")
    target.add_argument("--error", choices=_SYNTH_TAGS, help="use a built-in decoder matrix")
    p_synth.add_argument("--check", action="store_true", help="report the circuit's deviation from the matrix")
    p_synth.set_defaults(func=cmd_synth)

    p_fid = sub.add_parser("fidelity", help="sweep recovery fidelity against the closed forms")
    p_fid.add_argument("--r-min", type=float, default=0.0)
    p_fid.add_argument("--r-max", type=float, default=2.0)
    p_fid.add_argument("--steps", type=int, default=9)
    p_fid.add_argument("--alpha", default="0", help="input amplitude, e.g. 1, 2i, 1+1i")
    p_fid.add_argument("--errors", default=",".join(ERASURE_TAGS), help="subset like E2,E4")
    p_fid.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_fid.add_argument("--gnuplot", default=None, help="also write a gnuplot script (needs --out)")
    # also accepted after the subcommand; SUPPRESS keeps a global --seed when absent here
    p_fid.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for the sampled homodynes")
    p_fid.set_defaults(func=cmd_fidelity)

    p_thresh = sub.add_parser("threshold", help="minimum squeezing for a target worst-case fidelity")
    p_thresh.add_argument("--target", type=float, required=True)
    p_thresh.add_argument("--tol", type=float, default=1e-6)
    p_thresh.set_defaults(func=cmd_threshold)

    p_space = sub.add_parser("spacetime", help="check a causal-diamond configuration")
    p_space.add_argument(
        "--config",
        required=True,
        help="JSON file, or a built-in name: " + ", ".join(sorted(replication.BUILTIN_CONFIGURATIONS)),
    )
    p_space.set_defaults(func=cmd_spacetime)
    return parser


# Built once per process: parsing leaves the parser as it was, and the
# argparse tree costs more than most commands.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
