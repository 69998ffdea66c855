"""The benchmark's own reference answers, computed without calling cvrep.

Every expectation the checker compares a CLI output against comes from
here: closed-form fidelities and their inverse, exact integer ranks, the
code generators written out from their definitions, a causal model of the
diamonds, and a position-space fold of a circuit.  Only numeric tolerances
are taken from ``cvrep.tolerances``, so "close enough" means the same thing
to the benchmark and to the program.
"""

from __future__ import annotations

import math
from itertools import combinations

# ---------------------------------------------------------------------------
# recovery fidelities (optical pipeline, paper's closed forms)

TAGS = ("E1", "E2", "E3", "E4")


def closed_form(tag: str, r: float) -> float:
    if tag == "E1":
        return 1.0
    if tag in ("E2", "E3"):
        return 1.0 / (1.0 + 2.0 * math.exp(-2.0 * r))
    return 1.0 / (1.0 + math.exp(-2.0 * r))


def threshold_r(target: float) -> float:
    """Least r with min over tags of closed_form >= target (worst case is E2/E3)."""
    if target <= 1.0 / 3.0:
        return 0.0
    return 0.5 * math.log(2.0 * target / (1.0 - target))


# ---------------------------------------------------------------------------
# exact rank of an integer matrix (fraction-free Gaussian elimination)

def int_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of a matrix with integer entries (Bareiss)."""
    M = [list(r) for r in rows if any(r)]
    if not M:
        return 0
    n_cols = len(M[0])
    rank, prev = 0, 1
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        p = M[rank][c]
        for i in range(rank + 1, len(M)):
            a = M[i][c]
            M[i] = [(p * x - a * y) // prev for x, y in zip(M[i], M[rank])]
        prev = p
        rank += 1
        if rank == len(M):
            break
    return rank


def _columns(rows: list[list[int]], cols: list[int]) -> list[list[int]]:
    return [[r[c] for c in cols] for r in rows]


def correctable(x_rows, p_rows, erased, n_modes: int) -> bool:
    """Exact erasure correctability of a CSS code with independent rows.

    Undetectable X-type errors on E are the kernel of P[:, E]; those that are
    stabilizers are the X-row combinations vanishing off E.  Both sets are
    nested, so the erasure is correctable iff their dimensions agree, on the
    X side and mirrored on the P side:
    ``|E| - rank P[:,E] == k_X - rank X[:,~E]`` and the same with X, P swapped.
    """
    erased = sorted(erased)
    kept = [m for m in range(n_modes) if m not in set(erased)]
    for span, constraint in ((x_rows, p_rows), (p_rows, x_rows)):
        if int_rank(span) != len(span):
            raise ValueError("reference code rows are not independent")
        undetectable = len(erased) - int_rank(_columns(constraint, erased))
        stabilizers = len(span) - int_rank(_columns(span, kept))
        if undetectable != stabilizers:
            return False
    return True


def rowspaces_equal(A, B) -> bool:
    ra, rb = int_rank(A), int_rank(B)
    return ra == rb == int_rank(list(A) + list(B))


# ---------------------------------------------------------------------------
# codes, written out from their definitions

FIVE_MODE_X = [[-1, -1, 1, 1, 0], [0, 0, -1, 1, -2]]
FIVE_MODE_P = [[1, 1, 1, 1, 0], [0, 0, -1, 1, 1]]


def edges(N: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, N + 1), 2))


def _edge_vector(N: int, pairs) -> list[int]:
    """Sum of signed edges e_ab, with e_ba = -e_ab."""
    index = {e: i for i, e in enumerate(edges(N))}
    vec = [0] * len(index)
    for a, b in pairs:
        if a < b:
            vec[index[(a, b)]] += 1
        else:
            vec[index[(b, a)]] -= 1
    return vec


def triangle(N: int, i: int, j: int, k: int) -> list[int]:
    return _edge_vector(N, [(i, j), (j, k), (k, i)])


def star(N: int, j: int) -> list[int]:
    return _edge_vector(N, [(j, k) for k in range(1, N + 1) if k != j])


def general_code(N: int) -> tuple[list[list[int]], list[list[int]]]:
    """X rows: triangles through vertex 1; P rows: star_1 + star_k, 2 <= k < N."""
    x_rows = [triangle(N, 1, j, k) for j, k in combinations(range(2, N + 1), 2)]
    s1 = star(N, 1)
    p_rows = [[a + b for a, b in zip(s1, star(N, k))] for k in range(2, N)]
    return x_rows, p_rows


def homological_x_rows(N: int) -> list[list[int]]:
    """Boundaries of the triangles containing vertex N (a second cycle basis)."""
    return [triangle(N, a, b, N) for a, b in combinations(range(1, N), 2)]


def vertex_erasure(N: int, vertex: int) -> list[int]:
    """0-based indices of the edges not incident to the recovery vertex."""
    return [i for i, e in enumerate(edges(N)) if vertex not in e]


def general_vertex_verdicts(N: int) -> list[bool]:
    x_rows, p_rows = general_code(N)
    n = len(edges(N))
    return [correctable(x_rows, p_rows, vertex_erasure(N, v), n) for v in range(1, N + 1)]


def homology_matches(N: int) -> tuple[bool, bool]:
    x_rows, p_rows = general_code(N)
    # -d_1^T (e_1 + e_j) is the star sum itself, so only X needs a new basis.
    return rowspaces_equal(homological_x_rows(N), x_rows), rowspaces_equal(p_rows, p_rows)


# ---------------------------------------------------------------------------
# causal model of diamond configurations (Minkowski, c = 1)

def causal_leq(a, b, slack: float) -> bool:
    """Point a = (t, x...) can signal point b."""
    dt = b[0] - a[0]
    return dt >= -slack and dt >= math.dist(a[1:], b[1:]) - slack


def config_answer(config: dict, slack: float) -> dict:
    """valid / violations / graph / chain / code of a configuration dict."""
    start = config["start"]
    ds = config["diamonds"]
    n = len(ds)
    violations = [
        {"kind": "start-unreachable", "diamonds": [j]}
        for j in range(1, n + 1)
        if not causal_leq(start, ds[j - 1]["z"], slack)
    ]
    graph = []
    for i, j in combinations(range(1, n + 1), 2):
        forward = causal_leq(ds[i - 1]["y"], ds[j - 1]["z"], slack)
        backward = causal_leq(ds[j - 1]["y"], ds[i - 1]["z"], slack)
        if forward:
            graph.append([i, j])
        elif backward:
            graph.append([j, i])
        else:
            violations.append({"kind": "unrelated-pair", "diamonds": [i, j]})
    chain = None
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if chain or j == i or not causal_leq(ds[i - 1]["y"], ds[j - 1]["z"], slack):
                continue
            for k in range(1, n + 1):
                if k not in (i, j) and causal_leq(ds[j - 1]["z"], ds[k - 1]["z"], slack):
                    chain = [i, j, k]
                    break
    valid = not violations
    code = None
    if valid and n >= 4:
        code = "five_mode" if n == 4 and chain else f"general-{n}"
    return {
        "n_diamonds": n,
        "dim": config["dim"],
        "valid": valid,
        "violations": violations,
        "graph": graph,
        "chain": chain,
        "code": code,
    }


# ---------------------------------------------------------------------------
# circuits: position-space action of a synthesized gate list

def fold_position(circuit) -> list[list[float]]:
    """Matrix M with x -> M x for a circuit of QND / SQ / SWAP ops.

    Each gate left-multiplies the running product: QND adds gain * row
    control to row target, SQ scales a row, SWAP exchanges two rows.  Rows
    and columns are in ``circuit.labels`` order.
    """
    pos = {v: i for i, v in enumerate(circuit.labels)}
    n = len(pos)
    M = [[float(i == j) for j in range(n)] for i in range(n)]
    for op in circuit.ops:
        kind = type(op).__name__
        if kind == "Qnd":
            c, t = M[pos[op.control]], pos[op.target]
            M[t] = [a + op.gain * b for a, b in zip(M[t], c)]
        elif kind == "SqueezeFactor":
            m = pos[op.mode]
            M[m] = [op.factor * a for a in M[m]]
        elif kind == "Swap":
            a, b = pos[op.a], pos[op.b]
            M[a], M[b] = M[b], M[a]
        else:
            raise ValueError(f"synthesized circuits hold no {kind} ops")
    return M


# The ideal decoders' position matrices (rows/cols in survivor order).
DECODER_MATRICES = {
    "E2": ((1, 4, 5), [[1, -1, 1], [0, 1, -2], [-1, 1, 0]]),
    "E3": ((1, 3, 5), [[1, -1, -1], [0, 1, 2], [1, -2, -2]]),
    "E4": ((2, 3, 4), [[-1, 1, 1], [0, 1, -1], [-1, 0.5, 0.5]]),
}
