"""Exact integer rank and row-space membership (``cvrep._introws``) against the rational oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rational_rank
from cvrep._introws import IntRows

# small entries, and entries past 2^53, where a float is an even integer
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70).map(float))


@st.composite
def int_matrices(draw):
    """Small integer matrices of three kinds, as floats, with dependent rows appended.

    "dense" rows rarely peel; "peeling" rows are [D | R] with each row owning
    one column of D, the columns shuffled; "chain" rows are unit upper
    triangular, so row i owns its column only once the rows above it are
    gone, and the peel takes one pass per row.
    """
    kind = draw(st.sampled_from(["dense", "peeling", "chain"]))
    k, extra = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    n = k + extra if kind != "dense" else draw(st.integers(1, 6))
    M = np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=k, max_size=k)), dtype=float)
    if kind != "dense":
        sparse = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=k, max_size=k))
        M *= np.array(sparse)
        M[:, :k] = np.triu(M[:, :k], 1) if kind == "chain" else 0
        M[np.arange(k), np.arange(k)] = draw(st.lists(st.sampled_from([-1, 1, 2]), min_size=k, max_size=k))
        M = M[:, draw(st.permutations(range(n)))]
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), max_size=2))
    return np.vstack([M, np.array(combos, dtype=float).reshape(-1, k) @ M]) if combos else M


def _exact(M):
    rows = IntRows.of(M)
    assert rows is not None
    return rows


@settings(max_examples=300, deadline=None)
@given(M=int_matrices())
def test_rank_is_the_rational_rank(M):
    assert _exact(M).rank == rational_rank(M)


@settings(max_examples=300, deadline=None)
@given(A=int_matrices(), data=st.data())
def test_membership_is_the_rational_rank_of_the_stack(A, data):
    # B is a combination of A's rows, perhaps with one entry moved, or drawn freely
    k, n = A.shape
    if data.draw(st.booleans()):
        C = np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=1, max_size=3)))
        B = C @ A
        if data.draw(st.booleans()):
            B[data.draw(st.integers(0, len(B) - 1)), data.draw(st.integers(0, n - 1))] += 1
    else:
        B = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=1, max_size=3)), dtype=float)
    want = rational_rank(np.vstack([A, B])) == rational_rank(A)
    assert _exact(A).spans(_exact(B)) == want


def test_only_integral_finite_blocks_have_exact_rows():
    assert IntRows.of(np.array([[1.0, 0.5]])) is None
    assert IntRows.of(np.array([[1.0, np.inf]])) is None
    assert IntRows.of(np.array([[1.0, np.nan]])) is None
    assert IntRows.of(np.zeros((2, 3))).rank == 0
    assert IntRows.of(np.array([[2.0**60, 3.0]])).rank == 1


def test_the_peeled_comparison_falls_back_to_exact_rank_past_two_to_the_53():
    # A peels with unit pivots and B = A_0 + A_1 - A_2 exactly, but the
    # float sum of C A in B's last column would round: 2^53 + 1 is 2^53
    A = np.array([[1.0, 0, 0, 2.0**53], [0, 1, 0, 1], [0, 0, 1, 1]])
    B = np.array([[1.0, 1, -1, 2.0**53]])
    assert _exact(A).spans(_exact(B))
    B[0, 3] += 2  # the next float up: out of the span
    assert not _exact(A).spans(_exact(B))


def test_unit_pivots_need_every_row_peeled_on_a_sole_plus_or_minus_one():
    # row 0 owns column 0 (-1) and row 1 owns column 3 (+1); no other row touches either
    rows, cols, values = _exact(np.array([[-1.0, 1, 1, 0], [0, 2, 0, 1]])).unit_pivots
    assert (rows.tolist(), cols.tolist(), values.tolist()) == ([0, 1], [0, 3], [-1.0, 1.0])
    assert _exact(np.array([[-1.0, 1, 1, 0], [0, 0, 1, -2]])).unit_pivots is None  # a pivot of -2
    # a chain: row 1 peels first on column 2, then row 0 on column 1, which row 1 touches
    assert _exact(np.array([[1.0, 1, 0], [0, 1, 1]])).unit_pivots is not None
    assert _exact(np.array([[1.0, 1], [0, 1]])).unit_pivots is None
    assert _exact(np.array([[1.0, 1], [1, 1]])).unit_pivots is None  # no row peels
    assert _exact(np.array([[1.0, 0], [0, 0]])).unit_pivots is None  # a zero row has no pivot


@settings(max_examples=300, deadline=None)
@given(M=int_matrices())
def test_unit_pivots_solve_for_their_columns_in_integers(M):
    # with unit pivots, the free columns' identity and -s_i M[i, free] in
    # pivot column i span ker M: M B == 0 exactly, and B has full rank n - k
    exact = _exact(M)
    if exact.unit_pivots is None:
        return
    rows, cols, signs = exact.unit_pivots
    k, n = M.shape
    assert sorted(rows.tolist()) == list(range(k)) and (np.abs(signs) == 1).all()
    free = np.ones(n, dtype=bool)
    free[cols] = False
    exact_M = np.array([[int(v) for v in row] for row in M.tolist()], dtype=object).reshape(k, n)
    B = np.zeros((n, n - k), dtype=object)
    B[free] = np.eye(n - k, dtype=int)
    B[cols] = -signs[:, None].astype(int) * exact_M[np.ix_(rows, free)]
    assert not (exact_M @ B).any()
    # the rows are independent, so ker M has dimension n - k, and B's
    # identity rows make its n - k columns independent
    assert rational_rank(M) == k
