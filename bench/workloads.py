"""Seeded command lists for the three workloads, each command with its check.

A workload is a fixed list of ``cvrep`` argument vectors built from the
seed.  The *distribution* of every input is fixed here, before any outcome
is seen; the seed only picks values from it.  Sizes that dominate the cost
are fixed grids or stratified draws (one draw per quantile band), so that
two seeds give lists of nearly the same total work and differ in the
values, the order and the random matrices.

Every command carries the exit code it should return and a check of its
stdout against an answer from ``reference`` (the benchmark's own math).
Options are always passed as ``--opt=value``: a value such as ``-0.3+1i``
would otherwise be read as a flag.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from cvrep.circuits import parse
from cvrep.tolerances import TOL

WORKLOADS = ("sim", "codes", "synth")


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    size: int  # the input size that drives the cost (steps, N, n)
    expect_exit: int
    check: Callable[[str], str | None]  # stdout -> problem, or None if right

    def text(self) -> str:
        return "cvrep " + " ".join(self.argv)


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The workload's command list for ``seed``; input files go to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    cmds = {"sim": _sim, "codes": _codes, "synth": _synth}[workload](rng, workdir)
    return [cmds[i] for i in rng.permutation(len(cmds))]


def _stratified(rng, k: int, lo: float, hi: float, *, log: bool = False) -> list[float]:
    """k draws from [lo, hi), one from each of k equal-probability bands, shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    if log:
        vals = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    else:
        vals = lo + u * (hi - lo)
    return [float(v) for v in rng.permutation(vals)]


def _stratified_int(rng, k: int, lo: int, hi: int, *, log: bool = False) -> list[int]:
    """k integers in [lo, hi], stratified as ``_stratified``."""
    return [min(hi, int(v)) for v in _stratified(rng, k, lo, hi + 1, log=log)]


def _log_spaced(k: int, lo: int, hi: int) -> list[int]:
    """k sizes from lo to hi, evenly spaced in log scale (the same for every seed)."""
    return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]


def _balanced(rng, k: int, choices) -> list:
    """k picks that use each choice equally often (up to one), shuffled."""
    picks = [choices[i % len(choices)] for i in range(k)]
    return [picks[i] for i in rng.permutation(k)]


# ---------------------------------------------------------------------------
# sim: fidelity sweeps and threshold bisections on the five-mode register

N_SWEEPS, N_THRESHOLDS = 85, 15


def _sim(rng, workdir):
    cmds = []
    # Tag counts cycle over the sorted step counts, so that the total work
    # (steps x tags summed over sweeps) is nearly the same for every seed.
    steps = sorted(_stratified_int(rng, N_SWEEPS, 5, 40, log=True))
    n_tags = [1 + i % 4 for i in range(N_SWEEPS)]
    sampled = _balanced(rng, N_SWEEPS, (True, False, False))
    for s, k, with_seed in zip(steps, n_tags, sampled):
        tags = [ref.TAGS[i] for i in rng.permutation(4)[:k]]
        r_min = f"{rng.uniform(0.0, 1.0):.6g}"
        r_max = f"{float(r_min) + rng.uniform(0.0, 2.0):.6g}"
        re, im = np.round(rng.uniform(-2.0, 2.0, 2), 3)
        alpha = f"{re:g}{im:+g}i"
        argv = [f"--seed={int(rng.integers(1 << 31))}"] if with_seed else []
        argv += [
            "fidelity",
            f"--r-min={r_min}",
            f"--r-max={r_max}",
            f"--steps={s}",
            f"--alpha={alpha}",
            f"--errors={','.join(tags)}",
        ]
        grid = np.linspace(float(r_min), float(r_max), s)
        cmds.append(Command("fidelity", tuple(argv), s, 0, _sweep_check(grid, set(tags))))
    targets = _stratified(rng, N_THRESHOLDS, 0.4, 0.98)
    tols = _stratified(rng, N_THRESHOLDS, 1e-8, 1e-3, log=True)
    for target, tol in zip(targets, tols):
        target, tol = float(f"{target:.6g}"), float(f"{tol:.3g}")
        argv = ("threshold", f"--target={target!r}", f"--tol={tol!r}")
        size = round(math.log2(1.0 / tol))
        cmds.append(Command("threshold", argv, size, 0, _threshold_check(target, tol)))
    return cmds


def _sweep_check(grid, swept):
    header = "r,F1,F2,F3,F4,formula_F1,formula_F2,formula_F3,formula_F4,max_abs_dev"

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != header:
            return "bad CSV header"
        if len(lines) != len(grid) + 1:
            return f"{len(lines) - 1} rows, expected {len(grid)}"
        for r, line in zip(grid, lines[1:]):
            cells = [float(c) for c in line.split(",")]
            if len(cells) != 10 or not math.isclose(cells[0], r, rel_tol=1e-11, abs_tol=1e-11):
                return f"bad row {line!r} for r={r!r}"
            devs = []
            for i, tag in enumerate(ref.TAGS):
                formula = ref.closed_form(tag, r)
                sim, printed = cells[1 + i], cells[5 + i]
                if not math.isclose(printed, formula, rel_tol=1e-11):
                    return f"formula {tag} at r={r!r}: {printed!r} != {formula!r}"
                if tag not in swept:
                    if not math.isnan(sim):
                        return f"unswept {tag} has value {sim!r}"
                    continue
                dev = abs(sim - formula)
                if not dev <= TOL.fidelity_gate:
                    return f"{tag} at r={r!r}: |simulated - formula| = {dev:.3e}"
                devs.append(abs(sim - printed))
            if not abs(cells[9] - max(devs)) <= 2e-12:
                return f"max_abs_dev {cells[9]!r} != {max(devs)!r} at r={r!r}"
        return None

    return check


def _threshold_check(target, tol):
    expect = ref.threshold_r(target)

    def check(out: str) -> str | None:
        try:
            r = float(out.strip())
        except ValueError:
            return f"not a number: {out.strip()[:40]!r}"
        if not abs(r - expect) <= tol:
            return f"r = {r!r}, analytic {expect!r}, tol {tol!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# codes: correctability and code construction, plus causal configurations

# The largest verifies dominate the cost.
VERIFY_TAIL = ((16, False), (16, True), (20, False), (20, True), (24, True))
N_VERIFY, N_FIVE, N_BUILD, N_SPACETIME = 35, 20, 20, 25
EXACT_VERIFY_MAX_N = 12  # above this, the expectation is the theorem: all correctable


def _codes(rng, workdir):
    cmds = []
    # Sizes are fixed and --homology alternates over them, so the slowest
    # tenth of the list (where cmd_p90_ms sits) is the same for every seed.
    body = [(N, i % 2 == 1) for i, N in enumerate(_log_spaced(N_VERIFY, 5, 15))]
    for N, homology in [*VERIFY_TAIL, *body]:
        argv = ("verify", str(N)) + (("--homology",) if homology else ())
        cmds.append(Command("verify", argv, N, 0, _verify_check(N, homology)))
    for _ in range(N_FIVE):
        mask = int(rng.integers(1, 32))
        erased = [m for m in range(1, 6) if mask >> (m - 1) & 1]
        ok = ref.correctable(ref.FIVE_MODE_X, ref.FIVE_MODE_P, [m - 1 for m in erased], 5)
        argv = ("verify", "five", f"--erase={','.join(map(str, erased))}")
        report = {"code": "five_mode", "n_modes": 5, "patterns": [{"erased": erased, "vertex": None, "correctable": ok}], "homology": None, "ok": ok}
        cmds.append(Command("verify-five", argv, len(erased), 0 if ok else 1, _json_check(report)))
    for N in _log_spaced(N_BUILD, 4, 16):
        cmds.append(Command("code-build", ("code", "build", str(N)), N, 0, _build_check(N)))
    sizes = _stratified_int(rng, N_SPACETIME, 4, 12)
    kinds = _balanced(rng, N_SPACETIME, ("feasible", "unrelated", "unreachable"))
    for i, (n, kind) in enumerate(zip(sizes, kinds)):
        config, violations = _configuration(rng, n, int(rng.integers(1, 3)), kind)
        path = workdir / f"config{i:03d}.json"
        path.write_text(json.dumps(config))
        check = _spacetime_check(config, violations)
        cmds.append(Command("spacetime", ("spacetime", f"--config={path}"), n, 1 if violations else 0, check))
    return cmds


@functools.cache
def _general_expectation(N: int) -> tuple[list[bool], tuple[bool, bool]]:
    if N > EXACT_VERIFY_MAX_N:
        return [True] * N, (True, True)
    return ref.general_vertex_verdicts(N), ref.homology_matches(N)


def _verify_check(N, homology):
    verdicts, matches = _general_expectation(N)
    n_modes = N * (N - 1) // 2
    patterns = [
        {"erased": [m + 1 for m in ref.vertex_erasure(N, v)], "vertex": v, "correctable": ok}
        for v, ok in zip(range(1, N + 1), verdicts)
    ]
    hom = None
    if homology:
        hom = {
            "boundary_squares_to_zero": True,
            "x_rowspace_matches": matches[0],
            "p_rowspace_matches": matches[1],
            "boundary_shapes": {"0": [1, N], "1": [N, n_modes], "2": [n_modes, math.comb(N, 3)]},
        }
    ok = all(verdicts) and (not homology or all(matches))
    return _json_check({"code": f"general-{N}", "n_modes": n_modes, "patterns": patterns, "homology": hom, "ok": ok})


def _json_check(expected):
    def check(out: str) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return None if got == expected else f"report differs: {_first_diff(got, expected)}"

    return check


def _first_diff(got, expected, path="") -> str:
    if isinstance(got, dict) and isinstance(expected, dict):
        for key in sorted(set(got) | set(expected), key=str):
            if got.get(key, "<missing>") != expected.get(key, "<missing>"):
                return _first_diff(got.get(key, "<missing>"), expected.get(key, "<missing>"), f"{path}.{key}")
    if isinstance(got, list) and isinstance(expected, list) and len(got) == len(expected):
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return _first_diff(a, b, f"{path}[{i}]")
    return f"{path or '<root>'}: {str(got)[:60]} != {str(expected)[:60]}"


def _build_check(N):
    x_rows, p_rows = ref.general_code(N)
    n = N * (N - 1) // 2
    zeros = [0] * n
    rows = [r + zeros for r in x_rows] + [zeros + r for r in p_rows]
    expected = [
        f"code: general-{N}",
        f"modes: {n}",
        f"generators: {len(x_rows)} X + {len(p_rows)} P",
        *(" ".join(map(str, r)) for r in rows),
        "",  # the matrix block ends with its own newline
        "commutation: max |v.w| = 0.000e+00 (ok)",
    ]

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines == expected:
            return None
        if len(lines) != len(expected):
            return f"{len(lines)} lines, expected {len(expected)}"
        i = next(i for i, (a, b) in enumerate(zip(lines, expected)) if a != b)
        return f"line {i + 1}: {lines[i][:60]!r} != {expected[i][:60]!r}"

    return check


def _configuration(rng, n: int, dim: int, kind: str) -> tuple[dict, list]:
    """n diamonds whose violations are known by construction.

    Long diamonds (open for T = 2 sqrt(dim) L + 1) are pairwise related with
    a margin of at least 1.  The chosen "short" diamonds (open for 0.5) sit
    at least L >= 4 apart, so every short pair is unrelated; each is still
    related to every long one.  An early start reaches every exit; a late
    start (t = 1.5) misses exactly the short ones.  Returns the
    configuration and its violations in the order ``validate`` reports them.
    """
    L = float(n)
    T = 2.0 * math.sqrt(dim) * L + 1.0
    n_short = {"feasible": 0, "unrelated": int(rng.integers(2, 4)), "unreachable": int(rng.integers(1, 4))}[kind]
    corners = [[-L] + [0.0] * (dim - 1), [L] + [0.0] * (dim - 1), [0.0, L] if dim > 1 else [0.0]]
    short = sorted(int(i) for i in rng.permutation(n)[:n_short])
    diamonds = []
    for i in range(n):
        if i in short:
            x = corners[short.index(i)]
            diamonds.append({"y": [0.0, *x], "z": [0.5, *x]})
        else:
            x = [round(float(v), 6) for v in rng.uniform(-L, L, dim)]
            diamonds.append({"y": [0.0, *x], "z": [T, *x]})
    late = kind == "unreachable"
    start_t = 1.5 if late else -(math.sqrt(dim) * L + 1.0)
    config = {"dim": dim, "start": [start_t] + [0.0] * dim, "diamonds": diamonds}
    violations = [{"kind": "start-unreachable", "diamonds": [i + 1]} for i in short if late]
    violations += [{"kind": "unrelated-pair", "diamonds": [i + 1, j + 1]} for i, j in combinations(short, 2)]
    return config, violations


def _spacetime_check(config, violations):
    expected = ref.config_answer(config, TOL.causal_slack)
    if expected["violations"] != violations:
        raise RuntimeError(f"benchmark bug: constructed violations {violations} disagree with the causal model")
    return _json_check(expected)


# ---------------------------------------------------------------------------
# synth: circuits for integer unimodular and dense real matrices

# Twice the 100 commands a p90 needs, which steadies cmd_p90_ms from seed
# to seed.
N_DECODERS, N_UNIMODULAR, N_DENSE = 80, 60, 60
# Matrix sizes are fixed; the seed draws the entries.  A synth at n = 40
# costs ~100x one at n = 10, so drawing n would make the total work of a
# list depend on the seed.
SYNTH_MIN_N, SYNTH_MAX_N = 4, 40
# Unimodular draws are signed row permutations of L @ U, with L and U unit
# triangular and each off-diagonal entry -1 or +1 with probability 0.15
# each.  At n = 40 this gives cond ~ 1e4 and entries up to ~4.
UNIMODULAR_NONZERO = 0.3
# Larger matrices of this kind can exit 2 from a known defect (see README),
# and every command of a workload must succeed.  At n = 16 the largest
# self-check defect in 1500 draws was 40x below the tolerance.
UNIMODULAR_MAX_N = 16


def _synth(rng, workdir):
    cmds = []
    for tag in _balanced(rng, N_DECODERS, ("E2", "E3", "E4")):
        labels, A = ref.DECODER_MATRICES[tag]
        argv = ("synth", f"--error={tag}", "--check")
        cmds.append(Command("synth-decoder", argv, len(labels), 0, _synth_check(labels, A)))
    for i, n in enumerate(_log_spaced(N_UNIMODULAR, SYNTH_MIN_N, UNIMODULAR_MAX_N)):
        A = _unimodular(rng, n)
        path = workdir / f"unimodular{i:03d}.txt"
        np.savetxt(path, A, fmt="%d")
        cmds.append(_matrix_command("synth-unimodular", path, A.astype(float)))
    for i, n in enumerate(_log_spaced(N_DENSE, SYNTH_MIN_N, SYNTH_MAX_N)):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q * rng.uniform(0.5, 2.0, n)
        path = workdir / f"dense{i:03d}.txt"
        np.savetxt(path, A, fmt="%.17g")
        cmds.append(_matrix_command("synth-dense", path, A))
    return cmds


def _unimodular(rng, n: int) -> np.ndarray:
    def unit_triangle(k):
        entries = rng.choice([-1, 0, 1], size=(n, n), p=[UNIMODULAR_NONZERO / 2, 1 - UNIMODULAR_NONZERO, UNIMODULAR_NONZERO / 2])
        return np.tril(entries, k) if k < 0 else np.triu(entries, k)

    eye = np.eye(n, dtype=np.int64)
    A = (unit_triangle(-1) + eye) @ (unit_triangle(1) + eye)
    return A[rng.permutation(n)] * rng.choice([-1, 1], size=n)[:, None]


def _matrix_command(kind, path, A):
    n = A.shape[0]
    argv = ("synth", f"--matrix={path}", "--check")
    return Command(kind, argv, n, 0, _synth_check(tuple(range(1, n + 1)), A.tolist()))


def _synth_check(labels, A):
    def check(out: str) -> str | None:
        try:
            circuit = parse(out)
        except ValueError as exc:
            return f"circuit does not parse: {exc}"
        if circuit.labels != tuple(labels):
            return f"labels {circuit.labels} != {tuple(labels)}"
        try:
            M = ref.fold_position(circuit)
        except ValueError as exc:
            return str(exc)
        dev = max(abs(m - a) for row_m, row_a in zip(M, A) for m, a in zip(row_m, row_a))
        return None if dev <= TOL.synthesis else f"circuit misses its target by {dev:.3e}"

    return check
