"""Independent reference implementations used to cross-check package results.

Everything here is deliberately written the slow, obvious way — dense grids,
exact rational arithmetic, rejection sampling, op-by-op state updates — and
shares no logic with the package under test beyond reading gate blocks from
its op table.  Tests freeze values computed by these oracles and assert
the package reproduces them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Wigner-function overlap on a grid
# ---------------------------------------------------------------------------


def wigner_gaussian(grid_x, grid_p, mean, cov):
    """Wigner function of a one-mode Gaussian state, evaluated on a meshgrid."""
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    dx = grid_x - mean[0]
    dp = grid_p - mean[1]
    quad = inv[0, 0] * dx * dx + (inv[0, 1] + inv[1, 0]) * dx * dp + inv[1, 1] * dp * dp
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def wigner_overlap_fidelity(mean, cov, alpha, half_width=9.0, points=1201):
    """<alpha|rho|alpha> for a one-mode Gaussian rho, by brute-force integration.

    tr(rho sigma) = 2*pi * integral(W_rho * W_sigma) for one mode.  The pure
    coherent state has mean sqrt(2)*(Re alpha, Im alpha) and covariance I/2.
    """
    mean = np.asarray(mean, dtype=float)
    coh_mean = np.array([math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag])
    center = 0.5 * (mean + coh_mean)
    xs = np.linspace(center[0] - half_width, center[0] + half_width, points)
    ps = np.linspace(center[1] - half_width, center[1] + half_width, points)
    gx, gp = np.meshgrid(xs, ps, indexing="ij")
    w_state = wigner_gaussian(gx, gp, mean, np.asarray(cov, dtype=float))
    w_coh = wigner_gaussian(gx, gp, coh_mean, 0.5 * np.eye(2))
    step = (xs[1] - xs[0]) * (ps[1] - ps[0])
    return float(2.0 * math.pi * np.sum(w_state * w_coh) * step)


# ---------------------------------------------------------------------------
# Exact rational linear algebra (fractions.Fraction)
# ---------------------------------------------------------------------------


def _to_fraction_rows(M):
    out = []
    for row in M:
        frow = []
        for v in row:
            f = Fraction(v).limit_denominator(10**12)
            if abs(float(f) - float(v)) > 1e-12:
                raise ValueError(f"entry {v!r} is not exactly rational")
            frow.append(f)
        out.append(frow)
    return out


def rational_rref(rows):
    """Reduced row echelon form over Q.  Returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [inv * v if v else v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                # zero entries of the pivot row leave row i unchanged
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rational_rank(M):
    _, pivots = rational_rref(_to_fraction_rows(M))
    return len(pivots)


def rational_nullspace(M):
    """Basis of the right kernel of M over Q, as lists of Fractions."""
    rows = _to_fraction_rows(M)
    n_cols = len(rows[0]) if rows else 0
    rref, pivots = rational_rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis


def correctable_oracle(x_rows, p_rows, erased):
    """Brute-force erasure-correctability test over exact rationals.

    Generators are the 2n-dim phase-space rows (v, 0) and (0, w).  An erasure
    on mode set E is harmless iff every phase-space vector supported on the
    E coordinates that commutes with all generators (symplectic product zero)
    already lies in the generator row span: adding the kernel of the
    commutation constraints to the generators leaves their rank unchanged.
    """
    x_rows = _to_fraction_rows(x_rows)
    p_rows = _to_fraction_rows(p_rows)
    n = len(x_rows[0])
    zero = [Fraction(0)] * n
    gens = [list(v) + zero for v in x_rows] + [zero + list(w) for w in p_rows]

    def omega(u, v):
        return sum(u[k] * v[n + k] - u[n + k] * v[k] for k in range(n) if u[k] or u[n + k])

    support = sorted(erased) + [n + m for m in sorted(erased)]
    basis = []
    for coord in support:
        e = [Fraction(0)] * (2 * n)
        e[coord] = Fraction(1)
        basis.append(e)
    # constraint matrix: rows = generators, cols = support basis vectors
    constraint = [[omega(b, g) for b in basis] for g in gens]
    candidates = []
    for coeffs in rational_nullspace(constraint):
        candidate = [Fraction(0)] * (2 * n)
        for c, coord in zip(coeffs, support):
            candidate[coord] = c
        candidates.append(candidate)
    _, pivots_gens = rational_rref(gens)
    _, pivots_all = rational_rref(gens + candidates)
    return len(pivots_all) == len(pivots_gens)


def integer_det(M):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    rows = [[int(v) for v in row] for row in M]
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


# ---------------------------------------------------------------------------
# Direct Gaussian conditioning on explicit small matrices
# ---------------------------------------------------------------------------


def schur_condition(mean, cov, mode, basis, outcome):
    """Condition an xxpp-ordered Gaussian on measuring one quadrature.

    Returns (mean, cov) of the remaining modes after deleting both
    quadratures of the measured mode, mirroring a homodyne detector that
    absorbs the mode.  Plain index bookkeeping, no library calls.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.size // 2
    idx = mode if basis == "x" else n + mode
    keep = [k for k in range(2 * n) if k != idx]
    v_qq = cov[idx, idx]
    v_bq = cov[np.ix_(keep, [idx])][:, 0]
    cond_mean = mean[keep] + v_bq * (outcome - mean[idx]) / v_qq
    cond_cov = cov[np.ix_(keep, keep)] - np.outer(v_bq, v_bq) / v_qq
    # now delete the conjugate quadrature of the measured mode as well
    conj = n + mode if basis == "x" else mode
    conj_pos = keep.index(conj)
    left = [k for k in range(2 * n - 1) if k != conj_pos]
    return cond_mean[left], cond_cov[np.ix_(left, left)]


def step_run(circuit, mean, cov, *, forced=None, rng=None):
    """Execute ``circuit`` on the Gaussian (mean, cov) one op at a time.

    Each gate's block from the op table is embedded into a dense 2n x 2n
    matrix S (and its shift into a 2n vector), applied as mean -> S mean +
    shift, cov -> S cov S^T.  A Measure takes its outcome from ``forced``, or
    else draws it from the current marginal with ``rng``, and conditions with
    ``schur_condition``; a FeedforwardDisplace adds gain * outcome to the
    target's mean; a Discard deletes the mode's indices.  Returns
    ``(mean, cov, live labels, {register: outcome})``.
    """
    from cvrep.circuits.ir import Discard, FeedforwardDisplace, Measure, spec_of

    forced = forced or {}
    live = list(circuit.labels)
    mean = np.array(mean, dtype=float)
    cov = np.array(cov, dtype=float)
    outcomes = {}
    for op in circuit.ops:
        n = len(live)
        if isinstance(op, Measure):
            pos = live.index(op.mode)
            idx = pos if op.basis == "x" else n + pos
            if op.register in forced:
                outcome = float(forced[op.register])
            else:
                outcome = float(rng.normal(mean[idx], math.sqrt(cov[idx, idx])))
            mean, cov = schur_condition(mean, cov, pos, op.basis, outcome)
            outcomes[op.register] = outcome
            live.pop(pos)
        elif isinstance(op, FeedforwardDisplace):
            pos = live.index(op.target)
            mean[pos if op.quad == "x" else n + pos] += op.gain * outcomes[op.register]
        elif isinstance(op, Discard):
            pos = live.index(op.mode)
            keep = [i for i in range(2 * n) if i not in (pos, n + pos)]
            mean, cov = mean[keep], cov[np.ix_(keep, keep)]
            live.pop(pos)
        else:
            spec = spec_of(op)
            params = spec.params(op)
            modes = [live.index(w) for w in spec.wires(op)]
            idx = modes + [n + m for m in modes]
            S = np.eye(2 * n)
            shift = np.zeros(2 * n)
            if spec.block is not None:
                S[np.ix_(idx, idx)] = spec.block(*params)
            if spec.shift is not None:
                shift[idx] = spec.shift(*params)
            mean = S @ mean + shift
            cov = S @ cov @ S.T
    return mean, cov, tuple(live), outcomes


# ---------------------------------------------------------------------------
# Gauss-Jordan synthesis script, one NumPy call per entry and row
# ---------------------------------------------------------------------------

_SYNTH_ZERO = 1e-12


def _numpy_pivot(col, j, n, size):
    candidates = [i for i in range(j, n) if abs(col[i]) > _SYNTH_ZERO * size[i]]
    if not candidates:
        raise ValueError(f"matrix is singular: no pivot available in column {j}")
    ones = [i for i in candidates if col[i] == 1.0]
    ints = [i for i in candidates if float(col[i]).is_integer()]
    return (ones or ints or [max(candidates, key=lambda i: abs(col[i]))])[0]


def numpy_reduction_script(A, pivot_rows=None):
    """The row operations that reduce A to the identity, on a NumPy array.

    The elimination ``synthesize`` ran before it moved to Python float
    rows: the same pivot rule, the same zero test against each row's size,
    with ``M[i] += c * M[j]`` per row operation.  Raises ValueError with the
    package's message where the package raises SynthesisError.
    """
    n = A.shape[0]
    if pivot_rows is not None and len(pivot_rows) != n:
        raise ValueError(f"pivot_rows must supply one row per column: got {len(pivot_rows)} for n={n}")
    M = np.array(A, dtype=float)
    size = np.max(np.abs(M), axis=1)
    script = []
    for j in range(n):
        if pivot_rows is not None:
            p = int(pivot_rows[j])
            if not (j <= p < n):
                raise ValueError(f"pivot_rows[{j}]={p} out of range: must be a row index in [{j}, {n})")
            if abs(M[p, j]) <= _SYNTH_ZERO * size[p]:
                raise ValueError(f"pivot_rows[{j}]={p} selects a zero entry in column {j}")
        else:
            p = _numpy_pivot(M[:, j], j, n, size)
        if p != j:
            M[[j, p]] = M[[p, j]]
            size[[j, p]] = size[[p, j]]
            script.append(("swap", j, p))
        if M[j, j] != 1.0:
            c = 1.0 / M[j, j]
            M[j] *= c
            size[j] *= abs(c)
            script.append(("scale", j, c))
        for i in range(j + 1, n):
            if abs(M[i, j]) > _SYNTH_ZERO * size[i]:
                c = -M[i, j]
                M[i] += c * M[j]
                script.append(("add", i, j, c))
    for j in range(n - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if abs(M[i, j]) > _SYNTH_ZERO * size[i]:
                c = -M[i, j]
                M[i] += c * M[j]
                script.append(("add", i, j, c))
    return script


def script_circuit(script, labels):
    """The circuit of a reduction script: reversed, each step inverted."""
    from cvrep.circuits import Circuit, Qnd, SqueezeFactor, Swap

    ops = []
    for step in reversed(script):
        if step[0] == "add":
            _, i, j, c = step
            ops.append(Qnd(control=labels[j], target=labels[i], gain=float(-c)))
        elif step[0] == "scale":
            _, i, c = step
            ops.append(SqueezeFactor(mode=labels[i], factor=float(1.0 / c)))
        else:
            _, i, j = step
            ops.append(Swap(a=labels[i], b=labels[j]))
    return Circuit(tuple(labels), tuple(ops))


# ---------------------------------------------------------------------------
# Causal-diamond sampling and Lorentz boosts
# ---------------------------------------------------------------------------


def leq_oracle(a_t, a_x, b_t, b_x, slack=1e-9):
    """a causally precedes b: forward in time and inside the light cone."""
    dt = b_t - a_t
    dr = math.sqrt(sum((bx - ax) ** 2 for ax, bx in zip(a_x, b_x)))
    return dt >= -slack and dt >= dr - slack


def sample_in_diamond(rng, y, z, n_points):
    """Uniform points in the causal diamond {q : y <= q <= z}, by rejection."""
    dim = len(y.x)
    radius = 0.5 * (z.t - y.t)
    center = [0.5 * (a + b) for a, b in zip(y.x, z.x)]
    points = []
    if radius <= 0.0:  # degenerate diamond: single point
        return [(y.t, tuple(y.x))] * n_points
    while len(points) < n_points:
        batch = max(64, 2 * (n_points - len(points)))
        ts = rng.uniform(y.t, z.t, size=batch)
        xs = rng.uniform(-radius, radius, size=(batch, dim)) + np.asarray(center)
        for t, x in zip(ts, xs):
            pt = (float(t), tuple(float(v) for v in x))
            if leq_oracle(y.t, y.x, *pt) and leq_oracle(*pt, z.t, z.x):
                points.append(pt)
                if len(points) == n_points:
                    break
    return points


def related_oracle(rng, d1, d2, n_pairs=10_000):
    """Sampled witness search for a causal curve between two diamonds.

    Extreme corner pairs are included, so the search is exhaustive in the
    only direction that matters: a curve from D1 into D2 exists iff the
    earliest point of D1 precedes the latest point of D2.
    """
    side = int(math.isqrt(n_pairs))
    p1s = sample_in_diamond(rng, d1.y, d1.z, side) + [(d1.y.t, d1.y.x), (d1.z.t, d1.z.x)]
    p2s = sample_in_diamond(rng, d2.y, d2.z, side) + [(d2.y.t, d2.y.x), (d2.z.t, d2.z.x)]
    forward = any(leq_oracle(*p, *q) for p in p1s for q in p2s)
    backward = any(leq_oracle(*q, *p) for p in p1s for q in p2s)
    return forward or backward


def boost_point(t, x, beta):
    """Lorentz boost along the first spatial axis (c = 1)."""
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    x = list(x)
    t_new = gamma * (t - beta * x[0])
    x[0] = gamma * (x[0] - beta * t)
    return t_new, tuple(x)


# ---------------------------------------------------------------------------
# Threshold search, one radius at a time
# ---------------------------------------------------------------------------


def bisect_threshold(target, tol):
    """Least squeezing whose worst-case recovery fidelity meets ``target``, found step by step.

    The plain doubling bracket and bisection: every r it tries is its own
    ``recovery._fidelities`` call, made only when the previous verdict asks
    for it.  Raises the package's errors with the package's messages.
    """
    from cvrep.circuits import recovery

    def worst_case(r):
        return float(np.min(recovery._fidelities([r], recovery.ERASURE_TAGS, 0j)))

    if not math.isfinite(target):
        raise ValueError("target fidelity must be finite")
    if target >= 1.0:
        raise recovery.UnreachableTargetError(
            f"target fidelity {target} is unreachable: the worst-case recovery "
            f"fidelity approaches 1 only as squeezing grows without bound"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if worst_case(0.0) >= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while worst_case(hi) < target:
        lo, hi = hi, hi * 2.0
        if hi > 64.0:
            raise recovery.UnreachableTargetError(
                f"no squeezing below r = 64 reaches target fidelity {target}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats
            break
        if worst_case(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
