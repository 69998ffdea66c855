"""Stabilizer code construction and erasure correctability."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_op, random_gaussian_state
from oracles import correctable_oracle

from cvrep import codes, homology
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
    np.testing.assert_array_equal(codes.triangle_vector(basis, 2, 3), [1, -1, 0, 1, 0, 0])
    np.testing.assert_array_equal(codes.triangle_vector(basis, 3, 4), [0, 1, -1, 0, 0, 1])


@given(n=st.integers(min_value=4, max_value=8))
def test_triangle_vector_has_unit_norm_squared_three(n):
    basis = codes.edge_basis(n)
    for j in range(2, n):
        for k in range(j + 1, n + 1):
            v = codes.triangle_vector(basis, j, k)
            assert v @ v == 3
            assert np.count_nonzero(v) == 3


def test_triangle_vector_rejects_bad_indices():
    basis = codes.edge_basis(4)
    with pytest.raises(ValueError):
        codes.triangle_vector(basis, 3, 3)
    with pytest.raises(ValueError):
        codes.triangle_vector(basis, 1, 3)  # triangles exclude the base vertex
    with pytest.raises(ValueError):
        codes.triangle_vector(basis, 2, 5)


def test_star_vector_examples():
    basis = codes.edge_basis(4)
    np.testing.assert_array_equal(codes.star_vector(basis, 1), [1, 1, 1, 0, 0, 0])
    # the larger endpoint picks up the minus sign
    np.testing.assert_array_equal(codes.star_vector(basis, 3), [0, -1, 0, -1, 0, 1])


@given(n=st.integers(min_value=4, max_value=8))
def test_star_vectors_sum_to_zero_and_have_degree_norm(n):
    basis = codes.edge_basis(n)
    stars = [codes.star_vector(basis, j) for j in range(1, n + 1)]
    np.testing.assert_array_equal(np.sum(stars, axis=0), np.zeros(basis.n_edges))
    for a in stars:
        assert a @ a == n - 1


def test_star_span_has_dimension_n_minus_one():
    for n in range(4, 8):
        basis = codes.edge_basis(n)
        stars = np.array([codes.star_vector(basis, j) for j in range(1, n + 1)])
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
    assert code.n_generators == math.comb(n, 2) - 1
    assert np.linalg.matrix_rank(code.generator_matrix) == code.n_generators


@pytest.mark.parametrize("n", range(4, 9))
def test_x_and_p_generators_are_orthogonal(n):
    code = codes.build_general_code(n)
    assert code.orthogonality_defect() <= 1e-12


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
            t = codes.directed_triangle(basis, i, j, k)
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
    assert codes.symplectic_product(u, u) == 0.0
    assert codes.symplectic_product(u, v) == 1.0
    for _ in range(25):
        a, b = rng.normal(size=(2, 6))
        assert codes.symplectic_product(a, b) == pytest.approx(
            -codes.symplectic_product(b, a), rel=1e-12, abs=1e-12
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


def _direct_verdict(code, erased):
    """The restriction-rank identity with every rank taken on the column slice itself."""
    kept = [m for m in range(code.n_modes) if m not in erased]
    erased = sorted(erased)
    X, P = code.x_rows, code.p_rows
    sx, sp = code._scales
    return (
        len(erased) - codes._rank(P[:, erased], sp) == X.shape[0] - codes._rank(X[:, kept], sx)
        and len(erased) - codes._rank(X[:, erased], sx) == P.shape[0] - codes._rank(P[:, kept], sp)
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
        for M, scale, K in (
            (code.x_rows, code._scales[0], code._x_kernel),
            (code.p_rows, code._scales[1], code._p_kernel),
        ):
            k, n = M.shape
            np.testing.assert_allclose(K @ K.T, np.eye(n - k), atol=1e-12)
            np.testing.assert_allclose(M @ K.T, 0.0, atol=1e-12)
            for size in range(n + 1):
                S = sorted(rng.choice(n, size, replace=False).tolist())
                rest = [m for m in range(n) if m not in S]
                assert codes._rank(M[:, S], scale) == size - (n - k) + codes._rank(K[:, rest], 1.0)


@pytest.mark.parametrize("builder", [codes.build_general_code, homology.build_homological_code])
def test_vertex_pattern_ranks_are_at_most_n_minus_one_wide(monkeypatch, builder):
    # the C(N-1,2)-square rank X[:, E] moves to the (N-1)-column complement
    n = 12
    code = builder(n)
    basis = codes.edge_basis(n)
    widths = []
    rank = codes._rank

    def spy(M, scale=None):
        widths.append(min(M.shape))
        return rank(M, scale)

    monkeypatch.setattr(codes, "_rank", spy)
    for vertex in range(1, n + 1):
        assert codes.check_correctable(code, codes.erasure_for_vertex(code, basis, vertex))
    assert len(widths) == 4 * n
    assert max(widths) == n - 1


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
