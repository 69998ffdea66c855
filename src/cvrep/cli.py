"""Command-line front end.

Machine-readable results (JSON reports, circuit text, CSV sweeps, threshold
values) go to stdout; human-oriented progress and summaries go to stderr, so
pipelines can consume the output directly.

``main`` reads argv with ``_read``, straight off the actions of the tree
``build_parser`` makes, into the namespace argparse would give.  It takes
exact spellings only: ``--opt=value``, ``--opt value`` (a value that does
not start with ``-``), a bare flag, positionals, the subcommand and the
global ``--seed`` before it.  Every other argv (an abbreviation, ``--``,
``-h``, a repeat, a value argparse rejects, a missing or conflicting
option) goes to ``parse_args``, so help, usage text and every error are
argparse's, and nothing a user sees changes.  ``parse_args`` takes six
to ten times as long as the reader, a quarter of a small ``fidelity`` or
``threshold`` command.

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
import os
import sys
import warnings
import weakref

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
    threshold_squeezing,
)
from .circuits.ir import _serialize_columns
from .circuits.synthesis import _synthesize
from .tolerances import TOL

_SYNTH_TAGS = ("E2", "E3", "E4")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _code_for(which: str):
    """Resolve 'five', 'six', or an integer N >= 4 to the code and its N (None for five)."""
    if which == "five":
        return codes.build_five_mode_code(), None
    try:
        n = 4 if which == "six" else int(which)
    except ValueError:
        raise ValueError(f"expected 'five', 'six', or an integer N >= 4, got {which!r}") from None
    return codes.build_general_code(n), n


def cmd_code(args) -> int:
    try:
        code, _ = _code_for(args.which)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(f"code: {code.name}")
    print(f"modes: {code.n_modes}")
    print(f"generators: {code.x_rows.shape[0]} X + {code.p_rows.shape[0]} P")
    print(codes.format_generator_matrix(code))
    # the constructor has already rejected generators that do not commute
    print(f"commutation: max |v.w| = {code.orthogonality_defect():.3e} (ok)")
    return 0


def _parse_mode_list(text: str, n_modes: int) -> np.ndarray:
    """The 1-based modes listed in ``text`` as one row of an erased-mode mask."""
    try:
        modes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--erase expects comma-separated mode numbers, got {text!r}") from None
    if not modes:
        raise ValueError("--erase got an empty mode list")
    bad = [m for m in modes if not 1 <= m <= n_modes]
    if bad:
        raise ValueError(f"--erase modes out of range 1..{n_modes}: {bad}")
    erased = np.zeros((1, n_modes), dtype=bool)
    erased[0, [m - 1 for m in modes]] = True
    return erased


#: json's text of a str key, written once per distinct key: a report repeats
#: a few keys in every entry
_key_text = functools.lru_cache(maxsize=1024)(json.dumps)


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, each list of plain ints joined in one step.

    With ``indent`` set, ``json`` writes every value through its Python
    encoder; a verify report holds thousands of erased-mode numbers.  A
    plain int, a bool and None are written here, with no ``json`` call.
    ``pad`` is the newline and indent that precede the closing bracket of
    ``obj``.
    """
    if isinstance(obj, (list, tuple, dict)) and obj:
        inner = pad + "  "
        sep = "," + inner
        if isinstance(obj, dict):
            items = []
            for key, value in obj.items():
                # json writes a key that is not a str (an int, a float, a
                # bool or None) as its value's text, quoted, and rejects others
                key = _key_text(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]
                items.append(f"{key}: {_json_text(value, inner)}")
            return "{" + inner + sep.join(items) + pad + "}"
        # a bool is an int that json writes as true or false
        if set(map(type, obj)) == {int}:
            text = sep.join(["%d"] * len(obj)) % tuple(obj)
        else:
            text = sep.join([_json_text(v, inner) for v in obj])
        return "[" + inner + text + pad + "]"
    # json's own text for the scalars it writes most; a str, a float and
    # anything else still go through json
    if type(obj) is int:
        return "%d" % obj
    if obj is None:
        return "null"
    if type(obj) is bool:
        return "true" if obj else "false"
    return json.dumps(obj)


def cmd_verify(args) -> int:
    try:
        code, n = _code_for(args.which)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.homology and n is None:
        return _fail_usage("--homology applies to the general construction, not the five-mode code")

    # one row of erased modes per pattern: the --erase list, or each vertex's
    if args.erase is not None:
        try:
            erased = _parse_mode_list(args.erase, code.n_modes)
        except ValueError as exc:
            return _fail_usage(str(exc))
        vertices = [None]
    else:
        erased = codes.vertex_erasures(code, None if n is None else codes.edge_basis(n))
        vertices = range(1, len(erased) + 1)
    verdicts = codes.correctable_mask(code, erased)
    all_ok = bool(verdicts.all())
    # each row picks its erased modes, 1-based and ascending, off one range
    numbers = np.arange(1, code.n_modes + 1)
    pattern_reports, lines = [], []
    for vertex, row, correctable in zip(vertices, erased, verdicts.tolist()):
        erased_1based = numbers[row].tolist()
        pattern_reports.append({"erased": erased_1based, "vertex": vertex, "correctable": correctable})
        lines.append(f"erasure {erased_1based}: {'correctable' if correctable else 'NOT correctable'}\n")
    sys.stderr.write("".join(lines))

    homology_report = None
    if args.homology:
        # chain_complex raises if any boundary square is nonzero; the report
        # reads only the shapes of its face tables
        shapes = {k: list(table.shape) for k, table in sorted(homology.chain_complex(n).boundary.items())}
        hom_code = homology.build_homological_code(n)
        # both codes' blocks are integer blocks, peeled on construction, so
        # each comparison is exact and takes no SVD
        x_match, p_match = (a.same_span(b) for a, b in zip(hom_code._blocks, code._blocks))
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
    print(_json_text(report))
    return 0 if all_ok else 1


def cmd_synth(args) -> int:
    pivot_rows = None
    if args.error is not None:
        A = decoder_matrix(args.error)
        labels = SURVIVOR_MODES[args.error]
        pivot_rows = REFERENCE_PIVOT_ROWS.get(args.error)
    else:
        try:
            # a file object: given a name, loadtxt would also try it as a URL
            # and under compressed names
            with open(args.matrix) as fh, warnings.catch_warnings():
                # a file without entries is reported below, not as a NumPy warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                A = np.loadtxt(fh, ndmin=2)
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
        columns, error = _synthesize(A, labels, pivot_rows=pivot_rows)
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _fail_usage(str(exc))
    # the text serialize gives, written from the elimination's columns
    sys.stdout.write(_serialize_columns(columns))
    if args.check:
        # the deviation synthesis measured to certify the circuit
        print(f"max |achieved - target| = {error:.3e}", file=sys.stderr)
    return 0


def _parse_alpha(text: str) -> complex:
    value = text.strip().replace(" ", "")
    # only a trailing i is the imaginary unit; the i of inf stays
    if value.endswith("i"):
        value = value[:-1] + "j"
    try:
        return complex(value)
    except ValueError:
        raise ValueError(f"cannot parse amplitude {text!r}; examples: 0, 1, 2i, 1+1i") from None


def _parse_errors(text: str) -> tuple[str, ...]:
    """Split a comma-separated tag list; SweepSpec validates the tags."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_CSV_HEADER = "r,F1,F2,F3,F4,formula_F1,formula_F2,formula_F3,formula_F4,max_abs_dev"


def _sweep_csv(result) -> str:
    table = np.column_stack([result.r, result.simulated, result.formula, result.row_max_abs_dev])
    template = ",".join(["%.12g"] * table.shape[1])
    return "\n".join([_CSV_HEADER, *[template % tuple(row) for row in table.tolist()]]) + "\n"


_GNUPLOT_TEMPLATE = """\
set datafile separator ','
set key autotitle columnhead outside
set xlabel 'squeezing r'
set ylabel 'recovery fidelity'
set yrange [0:1.05]
plot for [i=2:5] '{csv}' using 1:i with points pt 7, \\
     for [i=6:9] '{csv}' using 1:i with lines dashtype 2
"""


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file: one real path, or one existing file by two links."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing, so they are not one existing file
        return False


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
    if args.gnuplot is not None and args.out is None:
        return _fail_usage("--gnuplot needs --out so the script has a data file to plot")
    if args.out and args.gnuplot and _same_file(args.out, args.gnuplot):
        return _fail_usage(
            f"--out and --gnuplot name the same file ({args.out}): the script would overwrite its data"
        )

    try:
        result = fidelity_sweep(spec)
    except MemoryError as exc:
        return _fail_usage(f"--steps {spec.steps} is too large: {exc}")
    csv_text = _sweep_csv(result)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(csv_text)
        except OSError as exc:
            return _fail_usage(f"cannot write CSV file: {exc}")
        print(f"wrote {len(result.r)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    if args.gnuplot is not None:
        try:
            with open(args.gnuplot, "w", encoding="utf-8", newline="\n") as fh:
                # a quote inside gnuplot's single-quoted string is written twice
                fh.write(_GNUPLOT_TEMPLATE.format(csv=args.out.replace("'", "''")))
        except OSError as exc:
            return _fail_usage(f"cannot write gnuplot script: {exc}")
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
    except ValueError as exc:
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
    print(_json_text(out))
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
    parser.add_argument("--seed", type=int, default=None, help="accepted and ignored: no command samples a homodyne")
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
    p_fid.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="accepted and ignored, as the global --seed")
    p_fid.set_defaults(func=cmd_fidelity)

    p_thresh = sub.add_parser("threshold", help="minimum squeezing for a target worst-case fidelity")
    p_thresh.add_argument("--target", type=float, required=True)
    p_thresh.add_argument("--tol", type=float, default=1e-6, help="accepted and validated; moves no digit")
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

# Each parser's grammar as ``_read`` takes it, built from the parser's
# actions on first use and dropped with the parser, which is not changed
# once built.
_GRAMMARS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_FLAGS = (argparse._StoreConstAction, argparse._StoreTrueAction, argparse._StoreFalseAction)


def _grammar(parser: argparse.ArgumentParser) -> tuple | None:
    """``parser``'s actions as ``_read`` takes them; None if it has a positional of another kind.

    ``options`` maps each spelling of a store option to the action and its
    type converter, and of a flag to the action and None; options of any
    other kind (``-h``) are left out.  ``positionals`` holds each
    positional the same way, a subparsers action with None.  ``strs`` pairs
    each action whose default is a str with its converter.
    """
    try:
        return _GRAMMARS[parser]
    except KeyError:
        pass
    defaults, options, positionals, strs = {}, {}, [], []
    for action in parser._actions:
        convert = parser._registry_get("type", action.type, action.type)
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
            if isinstance(action.default, str):
                strs.append((action, convert))
        store = type(action) is argparse._StoreAction and action.nargs is None
        entry = (action, convert if store else None)
        if action.option_strings:
            if store or (type(action) in _FLAGS and action.nargs == 0):
                options.update(dict.fromkeys(action.option_strings, entry))
        elif store or type(action) is argparse._SubParsersAction:
            positionals.append(entry)
        else:
            positionals = None
            break
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    groups = [(set(group._group_actions), group.required) for group in parser._mutually_exclusive_groups]
    required = [action for action in parser._actions if action.required]
    grammar = None if positionals is None else (defaults, options, positionals, strs, groups, required)
    _GRAMMARS[parser] = grammar
    return grammar


def _read(parser: argparse.ArgumentParser, argv: list[str]) -> dict | None:
    """The values ``parser.parse_args(argv)`` gives, or None: then argparse must parse ``argv``.

    Only exact spellings are read: ``--opt=value``, ``--opt value`` with a
    value not starting with ``-``, a bare flag, positionals, and a
    subcommand, which reads the rest and whose values override the
    parent's.  An abbreviation, ``--``, ``-h``, a repeat, a value argparse
    would reject, a missing or conflicting option, or any other token
    gives None, so help, usage text and every error stay argparse's.
    """
    grammar = _grammar(parser)
    if grammar is None:
        return None
    defaults, options, positionals, strs, groups, required = grammar
    values, seen, given, i, k = dict(defaults), set(), set(), 0, 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token.startswith("-"):
            name, eq, text = token.partition("=")
            action, convert = options.get(name, (None, None))
            if action is None or action in seen or (eq and convert is None):
                return None
            if convert is not None and not eq:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                text, i = argv[i], i + 1
        elif k < len(positionals):
            (action, convert), text, k = positionals[k], token, k + 1
            if action.nargs == argparse.PARSER:
                sub = action.choices.get(token)
                sub = None if sub is None else _read(sub, argv[i:])
                if sub is None:
                    return None
                if action.dest is not argparse.SUPPRESS:
                    values[action.dest] = token
                values.update(sub)
                seen.add(action)
                break
        else:
            return None
        if convert is None:
            value = action.const
        else:
            try:
                value = convert(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        seen.add(action)
        if convert is None or value is not action.default:
            given.add(action)
    if any(action not in seen for action in required):
        return None
    if any(len(group & given) > 1 or (need and not group & given) for group, need in groups):
        return None
    for action, convert in strs:
        if action not in seen and values.get(action.dest) is action.default:
            try:
                values[action.dest] = convert(action.default)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
    return values


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    values = _read(parser, argv)
    args = parser.parse_args(argv) if values is None else argparse.Namespace(**values)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
