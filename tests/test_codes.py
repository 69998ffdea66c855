"""Stabilizer code construction and erasure correctability."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_op, random_gaussian_state
from oracles import (
    correctable_oracle,
    directed_triangle,
    n_generators,
    star_vector,
    symplectic_product,
    triangle_vector,
)

from cvrep import codes, homology
from cvrep._introws import IntRows
from cvrep import gaussian as g
from cvrep.circuits import Displace

# ---------------------------------------------------------------------------
# edge basis, triangles, stars
# ---------------------------------------------------------------------------


def test_edge_basis_is_lexicographic():
    basis = codes.edge_basis(4)
    assert basis.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert codes.edge_basis(3).n_edges == 3
    assert codes.edge_basis(8).n_edges == 28


def test_edge_basis_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        codes.edge_basis(2)


def test_triangle_vectors_for_four_vertices():
    basis = codes.edge_basis(4)
    np.testing.assert_array_equal(triangle_vector(basis, 2, 3), [1, -1, 0, 1, 0, 0])
    np.testing.assert_array_equal(triangle_vector(basis, 3, 4), [0, 1, -1, 0, 0, 1])


@given(n=st.integers(min_value=4, max_value=8))
def test_triangle_vector_has_unit_norm_squared_three(n):
    basis = codes.edge_basis(n)
    for j in range(2, n):
        for k in range(j + 1, n + 1):
            v = triangle_vector(basis, j, k)
            assert v @ v == 3
            assert np.count_nonzero(v) == 3


def test_triangle_vector_rejects_bad_indices():
    basis = codes.edge_basis(4)
    with pytest.raises(ValueError):
        triangle_vector(basis, 3, 3)
    with pytest.raises(ValueError):
        triangle_vector(basis, 1, 3)  # triangles exclude the base vertex
    with pytest.raises(ValueError):
        triangle_vector(basis, 2, 5)


def test_star_vector_examples():
    basis = codes.edge_basis(4)
    np.testing.assert_array_equal(star_vector(basis, 1), [1, 1, 1, 0, 0, 0])
    # the larger endpoint picks up the minus sign
    np.testing.assert_array_equal(star_vector(basis, 3), [0, -1, 0, -1, 0, 1])


@given(n=st.integers(min_value=4, max_value=8))
def test_star_vectors_sum_to_zero_and_have_degree_norm(n):
    basis = codes.edge_basis(n)
    stars = [star_vector(basis, j) for j in range(1, n + 1)]
    np.testing.assert_array_equal(np.sum(stars, axis=0), np.zeros(basis.n_edges))
    for a in stars:
        assert a @ a == n - 1


def test_star_span_has_dimension_n_minus_one():
    for n in range(4, 8):
        basis = codes.edge_basis(n)
        stars = np.array([star_vector(basis, j) for j in range(1, n + 1)])
        assert np.linalg.matrix_rank(stars) == n - 1


# ---------------------------------------------------------------------------
# code constructions
# ---------------------------------------------------------------------------


def test_four_vertex_code_matches_the_reference_matrix():
    code = codes.build_general_code(4)
    printed_x = {(1, -1, 0, 1, 0, 0), (0, 1, -1, 0, 0, 1), (1, 0, -1, 0, 1, 0)}
    printed_p = [(0, 1, 1, 1, 1, 0), (1, 0, 1, -1, 0, 1)]
    assert {tuple(int(v) for v in row) for row in code.x_rows} == printed_x
    assert [tuple(int(v) for v in row) for row in code.p_rows] == printed_p


@pytest.mark.parametrize("n", range(4, 9))
def test_generator_counts_and_rank(n):
    code = codes.build_general_code(n)
    assert code.n_modes == math.comb(n, 2)
    assert code.x_rows.shape[0] == math.comb(n - 1, 2)
    assert code.p_rows.shape[0] == n - 2
    assert n_generators(code) == math.comb(n, 2) - 1
    assert np.linalg.matrix_rank(code.generator_matrix) == n_generators(code)


@pytest.mark.parametrize("n", range(4, 9))
def test_x_and_p_generators_are_orthogonal(n):
    code = codes.build_general_code(n)
    assert code.orthogonality_defect() <= 1e-12


@pytest.mark.parametrize("n", range(4, 10))
def test_general_code_rows_are_the_triangle_and_star_vectors(n):
    basis = codes.edge_basis(n)
    code = codes.build_general_code(n)
    triangles = [triangle_vector(basis, j, k) for j, k in itertools.combinations(range(2, n + 1), 2)]
    stars = [star_vector(basis, 1) + star_vector(basis, k) for k in range(2, n)]
    np.testing.assert_array_equal(code.x_rows, triangles)
    np.testing.assert_array_equal(code.p_rows, stars)


def test_small_region_counts_are_rejected():
    with pytest.raises(ValueError):
        codes.build_general_code(3)


def test_five_mode_code_rows_are_frozen():
    code = codes.build_five_mode_code()
    assert code.name == "five_mode"
    np.testing.assert_array_equal(code.x_rows, [[-1, -1, 1, 1, 0], [0, 0, -1, 1, -2]])
    np.testing.assert_array_equal(code.p_rows, [[1, 1, 1, 1, 0], [0, 0, -1, 1, 1]])
    assert code.orthogonality_defect() == 0.0


def test_triangles_and_loops_lie_in_the_x_row_space():
    # every directed triangle, and longer directed loops, are products of the
    # X generators
    for n in range(4, 7):
        basis = codes.edge_basis(n)
        code = codes.build_general_code(n)
        X = code.x_rows
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            t = directed_triangle(basis, i, j, k)
            _, residual, *_ = np.linalg.lstsq(X.T, t, rcond=None)
            assert residual.size == 0 or residual[0] <= 1e-10
        # a 4-cycle: 1 -> 2 -> 3 -> 4 -> 1
        loop = np.zeros(basis.n_edges)
        for a, b in ((1, 2), (2, 3), (3, 4), (4, 1)):
            idx, sign = basis.signed_unit(a, b)
            loop[idx] += sign
        _, residual, *_ = np.linalg.lstsq(X.T, loop, rcond=None)
        assert residual.size == 0 or residual[0] <= 1e-10


def test_stabilizer_code_rejects_non_commuting_rows():
    with pytest.raises(ValueError):
        codes.StabilizerCode(
            n_modes=2,
            x_rows=np.array([[1.0, 0.0]]),
            p_rows=np.array([[1.0, 1.0]]),
            name="broken",
        )
    # the commutation test does not depend on the scale of the rows
    x, p = np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]])
    for scale in (1e-11, 1.0, 1e6):
        with pytest.raises(ValueError, match="do not commute"):
            codes.StabilizerCode(2, scale * x, scale * p)
    # a defect at rounding level relative to the entries is accepted
    codes.StabilizerCode(2, 1e8 * np.array([[1.0, 1.0]]), 1e8 * np.array([[1.0, -1.0]]) + 1e-8)


def test_integer_generators_are_independent_exactly_at_any_entry_size():
    # det [[a, a+1], [a-1, a]] = 1, yet its singular values span about 2a^2
    # = 2e16: a float rank at the block's scale takes it for rank 1
    a = 10**8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = codes.StabilizerCode(3, [[a, a + 1, 0], [a - 1, a, 0]], [[0, 0, 1]])
        assert code._blocks[0].rank() == 2
        with pytest.raises(ValueError, match="linearly dependent"):
            codes.StabilizerCode(3, [[a, a + 1, 0], [2 * a, 2 * a + 2, 0]], [[0, 0, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stabilizer_code_rejects_non_finite_rows(bad):
    # rejected before any SVD: no LinAlgError, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            codes.StabilizerCode(2, [[bad, 0.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            codes.StabilizerCode(2, [[1.0, 0.0]], [[0.0, bad]])


def test_stabilizer_code_rejects_rank_deficient_rows():
    with pytest.raises(ValueError):
        codes.StabilizerCode(
            n_modes=3,
            x_rows=np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]]),
            p_rows=np.array([[1.0, 1.0, 1.0]]),
            name="broken",
        )


# ---------------------------------------------------------------------------
# symplectic product
# ---------------------------------------------------------------------------


def test_symplectic_product_basics(rng):
    u = np.array([1.0, 0, 0, 0])  # x_1 direction, two modes
    v = np.array([0.0, 0, 1, 0])  # p_1 direction
    assert symplectic_product(u, u) == 0.0
    assert symplectic_product(u, v) == 1.0
    for _ in range(25):
        a, b = rng.normal(size=(2, 6))
        assert symplectic_product(a, b) == pytest.approx(
            -symplectic_product(b, a), rel=1e-12, abs=1e-12
        )


# ---------------------------------------------------------------------------
# erasure patterns and correctability
# ---------------------------------------------------------------------------


def test_five_mode_erasure_table():
    # modes are stored 0-based; the published patterns are 1-based
    assert codes.FIVE_MODE_ERASURES[3] == frozenset({1, 3})
    assert codes.FIVE_MODE_ERASURES[1] == frozenset({2, 3, 4})
    assert codes.FIVE_MODE_ERASURES[4] == frozenset({0, 4})


def test_erasure_for_vertex_on_the_general_code():
    code = codes.build_general_code(4)
    basis = codes.edge_basis(4)
    pattern = codes.erasure_for_vertex(code, basis, 1)
    # edges avoiding vertex 1: 23, 24, 34 -> positions 3, 4, 5
    assert pattern.erased == frozenset({3, 4, 5})
    assert pattern.recovery_vertex == 1


def test_erasure_for_vertex_erases_exactly_the_edges_that_miss_the_vertex():
    for n in range(4, 10):
        code = codes.build_general_code(n)
        basis = codes.edge_basis(n)
        for vertex in range(1, n + 1):
            pattern = codes.erasure_for_vertex(code, basis, vertex)
            want = {i for i, edge in enumerate(basis.edges) if vertex not in edge}
            assert pattern.erased == want and len(want) == math.comb(n - 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            codes.erasure_for_vertex(code, basis, n + 1)


def test_erasure_for_vertex_rejects_a_basis_that_does_not_fit_the_code():
    # K_4 has 6 edges but general-5 has 10 modes: the pattern {3, 4, 5} built
    # from the wrong basis is not vertex 1's
    code = codes.build_general_code(5)
    with pytest.raises(ValueError, match="basis of K_4 has 6 edges but the code has 10 modes"):
        codes.erasure_for_vertex(code, codes.edge_basis(4), 1)
    with pytest.raises(ValueError, match="basis of K_6 has 15 edges but the code has 6 modes"):
        codes.erasure_for_vertex(codes.build_general_code(4), codes.edge_basis(6), 1)


def test_erasure_for_vertex_on_the_five_mode_code():
    code = codes.build_five_mode_code()
    pattern = codes.erasure_for_vertex(code, None, 3)
    assert pattern.erased == codes.FIVE_MODE_ERASURES[3]


def test_five_mode_patterns_are_correctable():
    code = codes.build_five_mode_code()
    for vertex in range(1, 5):
        pattern = codes.erasure_for_vertex(code, None, vertex)
        assert codes.check_correctable(code, pattern)


def test_five_mode_adjacent_pair_is_not_correctable():
    code = codes.build_five_mode_code()
    pattern = codes.ErasurePattern(frozenset({0, 1}))
    assert not codes.check_correctable(code, pattern)


def _nonempty_erasures(n_modes):
    for size in range(1, n_modes + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n_modes), size))


def test_correctability_agrees_with_the_rational_oracle():
    # every nonempty erasure of three codes: 31 + 63 + 63 = 157 patterns
    checked = 0
    for code in (
        codes.build_five_mode_code(),
        codes.build_general_code(4),
        homology.build_homological_code(4),
    ):
        for erased in _nonempty_erasures(code.n_modes):
            want = correctable_oracle(code.x_rows, code.p_rows, erased)
            got = codes.check_correctable(code, codes.ErasurePattern(erased))
            assert got == want, (code.name, sorted(erased))
            checked += 1
    assert checked == 157


def test_correctability_does_not_depend_on_scale():
    code = codes.build_five_mode_code()
    scaled = codes.StabilizerCode(5, 1e-11 * code.x_rows, 1e-11 * code.p_rows, name="scaled")
    for erased in _nonempty_erasures(5):
        pattern = codes.ErasurePattern(erased)
        assert codes.check_correctable(scaled, pattern) == codes.check_correctable(code, pattern)


# ---------------------------------------------------------------------------
# restriction ranks on the kernel complement
# ---------------------------------------------------------------------------

SCALES = (1e-11, 1.0, 1e6)


def _edge_codes(n):
    """The general, homological and truncated-homological codes on K_n."""
    homological = homology.build_homological_code(n)
    # P row i is -(q_i d_1): keeping N-3 of the butterfly rows keeps N-3 P rows
    truncated = codes.StabilizerCode(
        homological.n_modes,
        homological.x_rows,
        homological.p_rows[: n - 3],
        name=f"{homological.name}-truncated",
    )
    return codes.build_general_code(n), homological, truncated


def _test_erasures(code, n, seed, n_random):
    """Every vertex pattern of K_n (the five-mode table for n=None), then seeded random erasures."""
    if n is None:
        patterns = list(codes.FIVE_MODE_ERASURES.values())
    else:
        basis = codes.edge_basis(n)
        patterns = [codes.erasure_for_vertex(code, basis, v).erased for v in range(1, n + 1)]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        size = int(rng.integers(1, code.n_modes + 1))
        patterns.append(frozenset(rng.choice(code.n_modes, size, replace=False).tolist()))
    return patterns


def _scaled(code, scale):
    return codes.StabilizerCode(code.n_modes, scale * code.x_rows, scale * code.p_rows, name=code.name)


def _rank(M, scale):
    """rank M at ``scale``, from one SVD of M itself."""
    return codes._Block(M).rank(scale)


def _direct_verdict(code, erased):
    """The restriction-rank identity with every rank taken on the column slice itself."""
    kept = [m for m in range(code.n_modes) if m not in erased]
    erased = sorted(erased)
    X, P = code.x_rows, code.p_rows
    sx, sp = (block.scale for block in code._blocks)
    return (
        len(erased) - _rank(P[:, erased], sp) == X.shape[0] - _rank(X[:, kept], sx)
        and len(erased) - _rank(X[:, erased], sx) == P.shape[0] - _rank(P[:, kept], sp)
    )


@pytest.mark.parametrize("n", range(4, 9))
def test_complement_verdicts_agree_with_the_rational_oracle(n):
    # N = 6 is the first size where a vertex pattern takes rank X[:, E] on
    # the complement (n = 15 modes, k_X = 10)
    cases = [(code, n) for code in _edge_codes(n)]
    if n == 4:  # the five-mode code rides along with the smallest edge codes
        cases.append((codes.build_five_mode_code(), None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for code, vertices in cases:
            for erased in _test_erasures(code, vertices, seed=n, n_random=4):
                want = correctable_oracle(code.x_rows, code.p_rows, erased)
                for scale in SCALES:
                    got = codes.check_correctable(_scaled(code, scale), codes.ErasurePattern(erased))
                    assert got == want, (code.name, scale, sorted(erased))


@pytest.mark.parametrize("n", range(9, 17))
def test_complement_verdicts_agree_with_the_direct_identity(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for code in _edge_codes(n):
            for erased in _test_erasures(code, n, seed=n, n_random=6):
                want = _direct_verdict(code, erased)
                for scale in SCALES:
                    got = codes.check_correctable(_scaled(code, scale), codes.ErasurePattern(erased))
                    assert got == want, (code.name, scale, sorted(erased))


def test_complement_rank_identity_holds_on_both_blocks():
    # rank M[:, S] = |S| - (n - k) + rank K[:, ~S] for each block, at every size of S
    rng = np.random.default_rng(5)
    for code in (*_edge_codes(7), codes.build_five_mode_code()):
        for M, scale, K in ((block.rows, block.scale, block.kernel) for block in code._blocks):
            k, n = M.shape
            np.testing.assert_allclose(K @ K.T, np.eye(n - k), atol=1e-12)
            np.testing.assert_allclose(M @ K.T, 0.0, atol=1e-12)
            for size in range(n + 1):
                S = sorted(rng.choice(n, size, replace=False).tolist())
                rest = [m for m in range(n) if m not in S]
                assert _rank(M[:, S], scale) == size - (n - k) + _rank(K[:, rest], 1.0)


def _spied(name, read):
    """read(), and the shapes that np.linalg.<name> took while it ran."""
    honest, shapes = getattr(np.linalg, name), []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return honest(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, name, spy)
        return read(), shapes


@pytest.mark.parametrize("builder", [codes.build_general_code, homology.build_homological_code])
def test_vertex_pattern_ranks_are_at_most_n_minus_one_wide(builder):
    # both blocks peel on unit pivots, so each rank is a pivot count plus
    # the rank of a residual of W.  No SVD takes the C(N-1,2)-square
    # problem, nor either whole block: the plain SVDs are the two W's, for
    # the scales.  Every residual fits in (N-2) x (N-1), except one pattern
    # per block: X's kept side at v = 1 (all of W) and P's erased side at
    # v = N, each N-1 or fewer on its short side
    n = 12
    code = builder(n)
    basis = codes.edge_basis(n)
    patterns = [codes.erasure_for_vertex(code, basis, vertex) for vertex in range(1, n + 1)]
    verdicts, shapes = _spied("svd", lambda: codes.correctable(code, patterns))
    assert verdicts == [True] * n
    stacks = [shape for shape in shapes if len(shape) == 3]
    assert sum(shape[0] for shape in stacks) <= 4 * n
    assert max(min(shape[-2:]) for shape in shapes) == n - 1
    long = sorted(shape for shape in stacks if max(shape[1:]) > n - 1)
    assert long == [(1, n - 2, math.comb(n - 1, 2)), (1, math.comb(n - 1, 2), n - 1)]
    assert all(shape[1] <= n - 2 and shape[2] <= n - 1 for shape in stacks if shape not in long)
    X, P = (block.rows.shape for block in code._blocks)
    assert sorted(shape for shape in shapes if len(shape) == 2) == sorted([(X[0], n - 1), (P[0], P[1] - P[0])])
    assert X not in shapes and P not in shapes


# ---------------------------------------------------------------------------
# restriction ranks through the unit pivots, or through the complete route
# ---------------------------------------------------------------------------


def _complete_route(code):
    """The code rebuilt with no unit pivots: every restriction rank on the slice or its kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntRows, "unit_pivots", None)
        twin = codes.StabilizerCode(code.n_modes, code.x_rows, code.p_rows, name=code.name)
        assert all(block.pivots is None for block in twin._blocks)
    return twin


def _masks(code, erasures):
    erased = np.zeros((len(erasures), code.n_modes), dtype=bool)
    for row, modes in zip(erased, erasures):
        row[sorted(modes)] = True
    return erased, ~erased


def _ranks_and_verdicts(code, erasures):
    """Each block's ranks on the erased and on the kept modes, and the verdicts."""
    erased, kept = _masks(code, erasures)
    ranks = [block.ranks(side).tolist() for block in code._blocks for side in (erased, kept)]
    return ranks, codes.correctable(code, [codes.ErasurePattern(modes) for modes in erasures])


def _ranks_by_route(code, erasures):
    """``_ranks_and_verdicts`` through the unit pivots where a block has them, and on the complete route."""
    return _ranks_and_verdicts(code, erasures), _ranks_and_verdicts(_complete_route(code), erasures)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12, 17, 24, 40])
def test_the_peel_route_and_the_complete_qr_span_one_kernel(n):
    # a unit-pivot block's pivot map and W describe it exactly: a signed
    # identity on the pivot columns and W on the free ones, so the integer
    # basis read off them (the free identity, -s_i W[i] in row i's pivot
    # column) spans the complete QR's kernel.  Its restriction ranks take
    # no QR, and the residual route gives every vertex rank the complete
    # route gives.  The five-mode X block (a pivot of -2) has no unit pivots
    five = codes.build_five_mode_code() if n == 5 else None
    cases = [
        (codes.build_general_code(n), (True, True)),
        (homology.build_homological_code(n), (True, True)),
        *([(five, (False, True))] if five else []),
    ]
    for code, units in cases:
        for block, unit in zip(code._blocks, units):
            assert (block.pivots is not None) == unit, (code.name, block.rows.shape)
            if not unit:
                continue
            M = block.rows
            k, m = M.shape
            pivot_of, free, W = block.pivots
            assert np.array_equal(np.abs(M[:, pivot_of]), np.eye(k))
            assert np.array_equal(M[:, free], W)
            basis = np.zeros((m, m - k))
            basis[free, np.arange(m - k)] = 1.0
            basis[pivot_of] = -M[np.arange(k), pivot_of][:, None] * W
            assert not (M @ basis).any()
            K = np.linalg.qr(M.T, mode="complete")[0][:, k:].T
            Q = np.linalg.qr(basis)[0]
            assert np.abs(Q @ Q.T - K.T @ K).max() <= m * np.finfo(float).eps
        vertices = 4 if code is five else n
        erasures = _test_erasures(code, None if code is five else n, seed=n, n_random=0)
        (ranks, verdicts), qrs = _spied("qr", lambda: _ranks_and_verdicts(code, erasures))
        assert qrs == ([(5, 2)] if code is five else [])
        assert verdicts == [True] * vertices
        assert _ranks_by_route(code, erasures)[1] == (ranks, verdicts)


def test_both_kernel_routes_give_every_vertex_verdict():
    # every rank and verdict of every general-code vertex pattern at
    # N = 4-40, through the unit pivots and on the complete route (the
    # slices and the complete-QR kernel); by the paper, all verdicts hold
    for n in range(4, 41):
        code = codes.build_general_code(n)
        erasures = _test_erasures(code, n, seed=n, n_random=0)
        through_pivots, complete = _ranks_by_route(code, erasures)
        assert through_pivots == complete
        assert complete[1] == [True] * n


@pytest.mark.parametrize("scale", [1.0, 1 / 3, 1e-11])
def test_both_kernel_routes_give_every_drawn_verdict(scale):
    # seeded random erasures of the five-mode, general and homological
    # codes: both routes give every rank and verdict.  A scaled code is not
    # an integer code, so it takes the complete route either way
    rng = np.random.default_rng(28)
    edge_codes = [build(n) for n in (4, 7, 12) for build in (codes.build_general_code, homology.build_homological_code)]
    for code in (codes.build_five_mode_code(), *edge_codes):
        scaled = _scaled(code, scale)
        assert all((block.pivots is None) == (scale != 1.0 or block.exact.unit_pivots is None) for block in scaled._blocks)
        sizes = rng.integers(1, code.n_modes + 1, size=40)
        erasures = [frozenset(rng.choice(code.n_modes, size, replace=False).tolist()) for size in sizes]
        through_pivots, complete = _ranks_by_route(scaled, erasures)
        assert through_pivots == complete, code.name
        assert complete[1] == _verdicts(code, erasures), code.name


def _unit_pivot_block(data, k, c, bound):
    """A k x (k + c) integer block: +-1 pivots in a drawn row order, then a drawn W.

    The peel takes each row's first column that no other row touches, so
    the pivots come first; entries of at most 1 allow any column order,
    since every column the peel can take then holds +-1.
    """
    n = k + c
    entries = st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c), min_size=k, max_size=k)
    signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)
    M = np.zeros((k, n))
    M[data.draw(st.permutations(range(k))), np.arange(k)] = data.draw(signs)
    M[:, k:] = np.array(data.draw(entries), dtype=float).reshape(k, c)
    return M[:, data.draw(st.permutations(range(n)))] if bound == 1 else M


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), c=st.integers(0, 6), bound=st.sampled_from([1, 3, 50]), data=st.data())
def test_the_pivot_identity_gives_the_exact_restriction_rank(k, c, bound, data):
    # rank M[:, S] = |S & P| + rank W[R_S, S & F], with R_S the rows whose
    # pivot is not in S: exact in integers, and as the block's ranks take it
    M = _unit_pivot_block(data, k, c, bound)
    block = codes._Block(M)
    assert block.pivots is not None
    pivot_of, free, W = block.pivots
    n = k + c
    inside = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=8)))
    for mask, got in zip(inside, block.ranks(inside)):
        want = IntRows.of(M[:, mask]).rank
        residual = W[np.ix_(~mask[pivot_of], mask[free])]
        assert want == mask[pivot_of].sum() + IntRows.of(residual).rank
        assert got == want, (M, mask)


@pytest.mark.parametrize("n", [4, 5, 9, 16, 30])
def test_a_unit_pivot_scale_is_the_largest_singular_value(n):
    # M M^T = I + W W^T, so sqrt(1 + sigma_max(W)^2) = sigma_max(M), to rounding
    rng = np.random.default_rng(n)
    blocks = [block for build in (codes.build_general_code, homology.build_homological_code) for block in build(n)._blocks]
    blocks.append(codes.build_five_mode_code()._blocks[1])
    for k, c in ((3, 5), (8, 2), (n, n)):
        M = np.zeros((k, k + c))
        order = rng.permutation(k + c)
        M[np.arange(k), order[:k]] = rng.choice([-1.0, 1.0], size=k)
        M[:, order[k:]] = rng.integers(-9, 10, size=(k, c))
        blocks.append(codes._Block(M))
    for block in blocks:
        assert block.pivots is not None
        want = np.linalg.svd(block.rows, compute_uv=False)[0]
        assert block.scale == pytest.approx(want, rel=8 * block.rows.shape[1] * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# vertex patterns as one erased-mode mask
# ---------------------------------------------------------------------------


def test_the_mask_core_gives_the_pattern_route_s_vertex_verdicts():
    # each row of vertex_erasures is the set of edges that miss its vertex,
    # read here off the basis's own edges, and correctable_mask on the
    # whole mask gives what correctable gives on erasure_for_vertex's
    # patterns, for the general and the homological code at N = 4-40
    for n in range(4, 41):
        basis = codes.edge_basis(n)
        rule = [[vertex not in edge for edge in basis.edges] for vertex in range(1, n + 1)]
        for code in (codes.build_general_code(n), homology.build_homological_code(n)):
            erased = codes.vertex_erasures(code, basis)
            assert erased.dtype == bool and erased.tolist() == rule
            patterns = [codes.erasure_for_vertex(code, basis, vertex) for vertex in range(1, n + 1)]
            assert [set(np.flatnonzero(row).tolist()) for row in erased] == [p.erased for p in patterns]
            verdicts = codes.correctable_mask(code, erased)
            assert verdicts.dtype == bool
            assert verdicts.tolist() == codes.correctable(code, patterns) == [True] * n, code.name


def test_the_five_mode_mask_is_the_table():
    five = codes.build_five_mode_code()
    erased = codes.vertex_erasures(five, None)
    assert [set(np.flatnonzero(row).tolist()) for row in erased] == list(codes.FIVE_MODE_ERASURES.values())
    patterns = [codes.erasure_for_vertex(five, None, vertex) for vertex in range(1, 5)]
    assert codes.correctable_mask(five, erased).tolist() == codes.correctable(five, patterns) == [True] * 4
    # any vertices, in the order given
    assert np.array_equal(codes.vertex_erasures(five, None, [3, 1]), erased[[2, 0]])
    code, basis = codes.build_general_code(6), codes.edge_basis(6)
    assert np.array_equal(codes.vertex_erasures(code, basis, [6, 2, 2]), codes.vertex_erasures(code, basis)[[5, 1, 1]])


def test_the_mask_core_takes_the_masks_the_pattern_step_builds():
    # every five-mode subset and seeded erasures of an edge code, through
    # erasure_mask and the core, in input order; no pattern gives no rows
    rng = np.random.default_rng(35)
    for code in (codes.build_five_mode_code(), codes.build_general_code(7), homology.build_homological_code(7)):
        sizes = rng.integers(0, code.n_modes + 1, size=40)
        erasures = [frozenset(rng.choice(code.n_modes, size, replace=False).tolist()) for size in sizes]
        erased = codes.erasure_mask(code, [codes.ErasurePattern(modes) for modes in erasures])
        assert erased.tolist() == [[m in modes for m in range(code.n_modes)] for modes in erasures]
        want = [correctable_oracle(code.x_rows, code.p_rows, modes) for modes in erasures]
        assert codes.correctable_mask(code, erased).tolist() == _verdicts(code, erasures) == want, code.name
    assert codes.erasure_mask(code, []).shape == (0, code.n_modes)
    assert codes.correctable_mask(code, np.zeros((0, code.n_modes), dtype=bool)).tolist() == []


def test_vertex_erasures_and_the_mask_core_reject_what_does_not_fit():
    code, basis, five = codes.build_general_code(5), codes.edge_basis(5), codes.build_five_mode_code()
    with pytest.raises(ValueError, match="vertex 0 out of range 1..5"):
        codes.vertex_erasures(code, basis, [1, 0])
    with pytest.raises(ValueError, match="vertex 6 out of range 1..5"):
        codes.erasure_for_vertex(code, basis, 6)
    for bad in (2.5, 2.0, True):
        for c, b in ((code, basis), (five, None)):
            with pytest.raises(ValueError, match="vertices must be integers"):
                codes.erasure_for_vertex(c, b, bad)
    assert codes.erasure_for_vertex(code, basis, np.int64(2)) == codes.erasure_for_vertex(code, basis, 2)
    assert codes.vertex_erasures(code, basis, []).shape == (0, 10)
    with pytest.raises(ValueError, match="five-mode recovery vertex must be 1..4, got 5"):
        codes.vertex_erasures(five, None, [2, 5])
    with pytest.raises(ValueError, match="need the EdgeBasis"):
        codes.vertex_erasures(code, None)
    with pytest.raises(ValueError, match="basis of K_4 has 6 edges but the code has 10 modes"):
        codes.vertex_erasures(code, codes.edge_basis(4))
    for bad in (np.zeros((2, 9), dtype=bool), np.zeros((2, 10), dtype=int), np.zeros(10, dtype=bool)):
        with pytest.raises(ValueError, match="boolean mask of 10 columns"):
            codes.correctable_mask(code, bad)


# ---------------------------------------------------------------------------
# monomial residuals
# ---------------------------------------------------------------------------


def _signed_pivots_then(W, rng):
    """[D | W], D diagonal with entries +-1: a unit-pivot block whose free columns are W."""
    k = len(W)
    return np.hstack([np.diag(rng.choice([-1.0, 1.0], size=k)), W])


@pytest.mark.parametrize("seed", range(8))
def test_a_monomial_residual_takes_its_nonzero_count_and_no_svd(seed):
    # W has at most one nonzero per row and per column, each +-1..+-7, and
    # zero rows and columns, so every residual W[R_S, S & F] is monomial:
    # its rank is its nonzero count, which the stacked SVD confirms
    rng = np.random.default_rng(seed)
    k, c = (int(v) for v in rng.integers(3, 10, size=2))
    size = int(rng.integers(1, min(k, c)))
    W = np.zeros((k, c))
    W[rng.choice(k, size, replace=False), rng.choice(c, size, replace=False)] = rng.integers(1, 8, size) * rng.choice(
        [-1, 1], size
    )
    block = codes._Block(_signed_pivots_then(W, rng))
    pivot_of, free, _ = block.pivots
    inside = rng.random((60, k + c)) < 0.5
    ranks, shapes = _spied("svd", lambda: block.ranks(inside))
    assert shapes == []
    residuals = [W[np.ix_(~mask[pivot_of], mask[free])] for mask in inside]
    assert sum(min(r.shape) > 1 for r in residuals) > 20
    svd = [mask[pivot_of].sum() + codes._stack_ranks(r[None], block.scale)[0] for mask, r in zip(inside, residuals)]
    assert ranks.tolist() == svd == [IntRows.of(block.rows[:, mask]).rank for mask in inside]


@pytest.mark.parametrize(
    "W, masks, want",
    [
        # two nonzeros in one column: two entries, rank 1
        ([[2, 0], [3, 0]], [[0, 0, 1, 1]], [1]),
        # two nonzeros in one row
        ([[2, 3], [0, 0]], [[0, 0, 1, 1]], [1]),
        # one group of two 2 x 2 residuals, one of them monomial: the whole
        # group takes the SVD
        ([[2, 0, 0], [3, 0, 1]], [[0, 0, 1, 1, 0], [0, 0, 0, 1, 1]], [1, 1]),
    ],
    ids=["column", "row", "mixed group"],
)
def test_a_residual_with_two_nonzeros_in_a_line_takes_the_svd(W, masks, want):
    W = np.array(W, dtype=float)
    block = codes._Block(_signed_pivots_then(W, np.random.default_rng(0)))
    inside = np.array(masks, dtype=bool)
    ranks, shapes = _spied("svd", lambda: block.ranks(inside))
    assert ranks.tolist() == want
    assert (len(masks), 2, 2) in shapes


@pytest.mark.parametrize("scale", [1e-11, 1 / 3])
def test_a_scaled_code_keeps_the_complement_route_and_its_verdicts(scale):
    # a scaled code is not an integer code: it has no unit pivots, so no
    # monomial shortcut, and takes the same stacked SVDs as the integer
    # code on the complete route, with the same verdicts (its singular
    # values, which the integer code takes only for a rank, come from its
    # construction)
    for n in (5, 8, 12):
        code, basis = codes.build_general_code(n), codes.edge_basis(n)
        scaled, twin = _scaled(code, scale), _complete_route(code)
        assert all(block.exact is None and block.pivots is None for block in scaled._blocks)
        erased = codes.vertex_erasures(code, basis)
        verdicts, shapes = _spied("svd", lambda: codes.correctable_mask(scaled, erased))
        complete, complete_shapes = _spied("svd", lambda: codes.correctable_mask(twin, erased))
        assert shapes == [shape for shape in complete_shapes if len(shape) == 3]
        assert verdicts.tolist() == complete.tolist() == codes.correctable_mask(code, erased).tolist() == [True] * n


# ---------------------------------------------------------------------------
# many patterns at once
# ---------------------------------------------------------------------------


def _verdicts(code, erasures):
    return codes.correctable(code, [codes.ErasurePattern(erased) for erased in erasures])


def test_correctable_agrees_with_the_oracle_in_input_order():
    # all 32 five-mode subsets, the empty and the full erasure among them,
    # forwards and backwards, so the sizes interleave, plus repeats
    five = codes.build_five_mode_code()
    subsets = [frozenset(), *_nonempty_erasures(5)]
    erasures = subsets + subsets[::-1] + [subsets[7], subsets[0], subsets[7]]
    want = [correctable_oracle(five.x_rows, five.p_rows, erased) for erased in erasures]
    assert want[0] and not want[31] and want.count(True) > 4
    assert _verdicts(five, erasures) == want
    assert _verdicts(five, []) == []


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=8), homological=st.booleans(), data=st.data())
def test_correctable_agrees_with_the_oracle_on_drawn_erasures(n, homological, data):
    code = homology.build_homological_code(n) if homological else codes.build_general_code(n)
    modes = st.integers(min_value=0, max_value=code.n_modes - 1)
    erasures = data.draw(st.lists(st.frozensets(modes, max_size=code.n_modes), min_size=1, max_size=6))
    want = [correctable_oracle(code.x_rows, code.p_rows, erased) for erased in erasures]
    assert _verdicts(code, erasures) == want


def test_correctable_names_an_out_of_range_mode():
    five = codes.build_five_mode_code()
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"erased mode {bad} out of range for 5-mode code"):
            _verdicts(five, [frozenset({0, 1}), frozenset({2, bad}), frozenset({1})])
        with pytest.raises(ValueError, match=f"erased mode {bad} out of range"):
            codes.check_correctable(five, codes.ErasurePattern({bad}))


def _badly_conditioned_code():
    # X[:, [0, 1]] has singular values 1 and 1e-9: both lie above the rank
    # cutoff at the block's scale 1, and they span 1e9 > TOL.condition_limit
    x = np.array([[1.0, 0, 0, 0, 0], [0, 1e-9, 1, 0, 0]])
    p = np.array([[0.0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    return codes.StabilizerCode(5, x, p, name="badly-conditioned")


def test_a_badly_conditioned_rank_warns_once_per_slice():
    code = _badly_conditioned_code()
    assert codes.TOL.condition_limit < 1e9
    # erasing modes 3-5 keeps modes 1-2, so rank X[:, kept] is taken on that slice
    bad, fine = frozenset({2, 3, 4}), frozenset({0, 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        one = codes.check_correctable(code, codes.ErasurePattern(bad))
    assert [str(w.message) for w in caught] == [
        "rank decision badly conditioned: singular values span 1.000e+00..1.000e-09"
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        many = _verdicts(code, [bad, fine, bad])
    assert len(caught) == 2
    assert all(str(w.message).startswith("rank decision badly conditioned") for w in caught)
    assert many == [one, _verdicts(code, [fine])[0], one]
    assert many == [correctable_oracle(code.x_rows, code.p_rows, e) for e in (bad, fine, bad)]


def test_general_code_vertex_patterns_are_correctable():
    for n in range(4, 8):
        code = codes.build_general_code(n)
        basis = codes.edge_basis(n)
        for vertex in range(1, n + 1):
            pattern = codes.erasure_for_vertex(code, basis, vertex)
            assert codes.check_correctable(code, pattern)


def test_general_code_losing_every_edge_at_a_vertex_pair_fails():
    # erase all edges touching vertices 1 or 2: no single vertex sees
    # an intact neighborhood, so logical data leaks into the erased set
    code = codes.build_general_code(4)
    basis = codes.edge_basis(4)
    erased = frozenset(
        idx for idx, (a, b) in enumerate(basis.edges) if a in (1, 2) or b in (1, 2)
    )
    assert not codes.check_correctable(code, codes.ErasurePattern(erased))


# ---------------------------------------------------------------------------
# nullifier variances
# ---------------------------------------------------------------------------


def test_vacuum_nullifier_variance_of_the_first_generator_is_two():
    code = codes.build_five_mode_code()
    variances = codes.nullifier_variances(code, g.vacuum(5))
    assert variances[0] == pytest.approx(2.0, rel=1e-14)
    # |row|^2 / 2 for every generator of either type
    want = [2.0, 3.0, 2.0, 1.5]
    np.testing.assert_allclose(variances, want, rtol=1e-14)


def test_nullifier_variances_ignore_displacements(rng):
    code = codes.build_five_mode_code()
    state = g.vacuum(5)
    displaced = state
    for mode in range(5):
        displaced = apply_op(displaced, Displace(mode + 1, complex(rng.normal(), rng.normal())))
    np.testing.assert_allclose(
        codes.nullifier_variances(code, state),
        codes.nullifier_variances(code, displaced),
        atol=1e-14,
    )


def test_nullifier_variances_need_matching_mode_count():
    code = codes.build_five_mode_code()
    with pytest.raises(ValueError):
        codes.nullifier_variances(code, g.vacuum(4))


def test_generator_matrix_formatting_is_readable():
    text = codes.format_generator_matrix(codes.build_five_mode_code())
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["-1", "-1", "1", "1", "0", "0", "0", "0", "0", "0"]


def test_generator_matrix_formatting_of_non_integral_and_huge_cells():
    # a non-integral cell prints as repr(float) and integral cells of the
    # same matrix as integers
    code = codes.StabilizerCode(2, [[0.5, 0.5]], [[1.0, -1.0]])
    assert codes.format_generator_matrix(code) == "0.5 0.5 0 0\n0 0 1 -1\n"
    code = codes.StabilizerCode(2, [[1e-11, -1e-11]], [[1.0, 1.0]])
    assert codes.format_generator_matrix(code) == "1e-11 -1e-11 0 0\n0 0 1 1\n"
    # integral cells at and past 2**53 still print every digit
    code = codes.StabilizerCode(2, [[2.0**53, 2.0**60]], [[2.0**7, -1.0]])
    assert codes.format_generator_matrix(code) == (
        f"{2**53} {2**60} 0 0\n0 0 128 -1\n"
    )
